package runlog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// FuzzReadAll checks the torn-line-tolerant ledger reader. Raw input must
// never panic it. A ledger assembled from plan — one line per plan byte:
// a valid entry, a torn prefix of one, garbage built from junk, or a
// blank line — must read back as exactly the valid entries, in order.
// The seed corpus runs with the ordinary tests.
func FuzzReadAll(f *testing.F) {
	f.Add([]byte{0, 1, 0}, []byte(`{"id":"a"}`+"\n"+`{"id":"b"`))
	f.Add([]byte{0, 2, 3, 0, 5}, []byte("not json\x00\r"))
	f.Add([]byte{9, 13, 0, 4, 8}, []byte(`{"id":"x"}`))
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, plan, junk []byte) {
		ReadAll(bytes.NewReader(junk))

		garbage := append([]byte("#"), bytes.ReplaceAll(junk, []byte("\n"), nil)...)
		var in bytes.Buffer
		var want []string
		for i, b := range plan {
			line, _ := json.Marshal(Entry{ID: fmt.Sprintf("run-%d", i), Endpoint: "experiment"}) // cannot fail
			switch b % 4 {
			case 0:
				in.Write(line)
				want = append(want, fmt.Sprintf("run-%d", i))
			case 1:
				in.Write(line[:int(b/4)%len(line)])
			case 2:
				in.Write(garbage)
			}
			in.WriteByte('\n')
		}
		var got []string
		for _, e := range ReadAll(&in) {
			got = append(got, e.ID)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("ReadAll = %v, want %v", got, want)
		}
	})
}
