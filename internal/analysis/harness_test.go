// An analysistest-style fixture harness: fixture packages live under
// testdata/src/<path> (GOPATH layout, as x/tools' analysistest expects),
// import each other by bare path, and annotate expected diagnostics with
// trailing `// want "regexp"` comments on the offending line. A fixture
// with no want comments asserts the analyzer stays silent on it — the
// negative fixtures (allowlisted wallclock package, blessed sort-after
// iteration, guarded recorder calls) are as load-bearing as the positive
// ones.
package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// fixtureLoader type-checks packages out of testdata/src, resolving
// fixture-local imports from source and everything else (stdlib) from gc
// export data via the go tool.
type fixtureLoader struct {
	srcdir string
	fset   *token.FileSet
	std    types.Importer
	cache  map[string]*Package
}

func newFixtureLoader(t *testing.T) *fixtureLoader {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	return &fixtureLoader{
		srcdir: filepath.Join(wd, "testdata", "src"),
		fset:   fset,
		std:    importer.ForCompiler(fset, "gc", newExportLookup(wd).lookup),
		cache:  map[string]*Package{},
	}
}

// Import implements types.Importer over the fixture tree.
func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	p, err := l.load(path)
	if err == nil {
		return p.Pkg, nil
	}
	if _, statErr := os.Stat(filepath.Join(l.srcdir, path)); statErr == nil {
		return nil, err // a broken fixture package is a test bug
	}
	return l.std.Import(path)
}

func (l *fixtureLoader) load(path string) (*Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.srcdir, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		af, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, af)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in fixture %s", dir)
	}
	conf := types.Config{Importer: l}
	info := newInfo()
	tp, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture %s: %v", path, err)
	}
	p := &Package{ImportPath: path, Dir: dir, Fset: l.fset, Files: files, Pkg: tp, TypesInfo: info}
	l.cache[path] = p
	return p, nil
}

// want is one expected diagnostic.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRE = regexp.MustCompile("//\\s*want\\s+(.*)$")

// collectWants parses `// want` comments out of a fixture package. Each
// quoted string (Go-quoted or backquoted) is a regexp that must match a
// diagnostic reported on that comment's line.
func collectWants(t *testing.T, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range splitQuoted(t, pos, m[1]) {
					re, err := regexp.Compile(q)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, q, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// splitQuoted extracts the quoted strings from a want comment's payload.
func splitQuoted(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"':
			end := strings.Index(s[1:], `"`)
			if end < 0 {
				t.Fatalf("%s: unterminated want string: %s", pos, s)
			}
			q, err := strconv.Unquote(s[:end+2])
			if err != nil {
				t.Fatalf("%s: bad want string %s: %v", pos, s, err)
			}
			out = append(out, q)
			s = strings.TrimSpace(s[end+2:])
		case '`':
			end := strings.Index(s[1:], "`")
			if end < 0 {
				t.Fatalf("%s: unterminated want string: %s", pos, s)
			}
			out = append(out, s[1:end+1])
			s = strings.TrimSpace(s[end+2:])
		default:
			t.Fatalf("%s: want payload must be quoted: %s", pos, s)
		}
	}
	return out
}

// runFixtures applies one analyzer to fixture packages and checks the
// diagnostics against the want annotations, x/tools analysistest style.
func runFixtures(t *testing.T, a *Analyzer, paths ...string) {
	t.Helper()
	l := newFixtureLoader(t)
	for _, path := range paths {
		pkg, err := l.load(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		diags, err := Run([]*Analyzer{a}, []*Package{pkg})
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, path, err)
		}
		wants := collectWants(t, pkg)
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			matched := false
			for _, w := range wants {
				if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
					w.hit = true
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("%s: unexpected diagnostic: %s", d.Position, d.Message)
			}
		}
		for _, w := range wants {
			if !w.hit {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
			}
		}
	}
}

// TestSuiteCleanOnModule is the acceptance gate in test form: the full
// analyzer suite must report nothing on the repo's own tree.
func TestSuiteCleanOnModule(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Dir(filepath.Dir(wd)) // internal/analysis -> module root
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	diags, err := Run(Analyzers(), pkgs)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(diags))
	for _, d := range diags {
		names = append(names, fmt.Sprintf("%s: %s (%s)", d.Position, d.Message, d.Analyzer))
	}
	sort.Strings(names)
	for _, n := range names {
		t.Errorf("module not vet-clean: %s", n)
	}
}
