package mem

import "armvirt/internal/cpu"

// TLBEntry caches one Stage-2 translation, tagged by VMID so entries for
// different VMs coexist (ARM VMID tagging / x86 VPID).
type TLBEntry struct {
	VMID int
	Page IPA
	PA   PA
	Perm Perm
}

// TLB is a simple LRU-ordered Stage-2 TLB model.
type TLB struct {
	capacity int
	order    []tlbKey // LRU order: front = oldest
	entries  map[tlbKey]TLBEntry
	hits     int64
	misses   int64
}

type tlbKey struct {
	vmid int
	page IPA
}

// NewTLB creates a TLB holding up to capacity entries.
func NewTLB(capacity int) *TLB {
	if capacity <= 0 {
		panic("mem: TLB capacity must be positive")
	}
	return &TLB{capacity: capacity, entries: make(map[tlbKey]TLBEntry)}
}

// Lookup returns a cached translation and refreshes its LRU position.
func (t *TLB) Lookup(vmid int, ipa IPA) (TLBEntry, bool) {
	k := tlbKey{vmid, ipa &^ (PageSize - 1)}
	e, ok := t.entries[k]
	if ok {
		t.hits++
		t.touch(k)
	} else {
		t.misses++
	}
	return e, ok
}

// Insert caches a translation, evicting the LRU entry if full.
func (t *TLB) Insert(e TLBEntry) {
	k := tlbKey{e.VMID, e.Page &^ (PageSize - 1)}
	if _, exists := t.entries[k]; !exists && len(t.entries) >= t.capacity {
		oldest := t.order[0]
		t.order = t.order[1:]
		delete(t.entries, oldest)
	}
	e.Page = k.page
	if _, exists := t.entries[k]; !exists {
		t.order = append(t.order, k)
	}
	t.entries[k] = e
}

func (t *TLB) touch(k tlbKey) {
	for i, o := range t.order {
		if o == k {
			t.order = append(t.order[:i], t.order[i+1:]...)
			t.order = append(t.order, k)
			return
		}
	}
}

// InvalidatePage drops one translation (TLBI IPAS2E1).
func (t *TLB) InvalidatePage(vmid int, ipa IPA) {
	k := tlbKey{vmid, ipa &^ (PageSize - 1)}
	if _, ok := t.entries[k]; !ok {
		return
	}
	delete(t.entries, k)
	for i, o := range t.order {
		if o == k {
			t.order = append(t.order[:i], t.order[i+1:]...)
			return
		}
	}
}

// InvalidateVMID drops all translations for one VM (TLBI VMALLS12E1).
func (t *TLB) InvalidateVMID(vmid int) {
	kept := t.order[:0]
	for _, k := range t.order {
		if k.vmid == vmid {
			delete(t.entries, k)
		} else {
			kept = append(kept, k)
		}
	}
	t.order = kept
}

// Len returns the number of cached translations.
func (t *TLB) Len() int { return len(t.entries) }

// Stats returns cumulative hits and misses.
func (t *TLB) Stats() (hits, misses int64) { return t.hits, t.misses }

// Translator combines a Stage-2 table with a TLB and produces per-access
// cycle costs: free on a hit, a multi-level walk on a miss, and a Stage-2
// fault cost when unmapped.
type Translator struct {
	Table *S2Table
	TLB   *TLB
	// WalkPerLevel is the cost of touching one table level on a miss.
	WalkPerLevel cpu.Cycles
}

// FaultError reports a Stage-2 fault (unmapped or permission-denied IPA).
type FaultError struct {
	IPA   IPA
	Write bool
}

func (f *FaultError) Error() string {
	op := "read"
	if f.Write {
		op = "write"
	}
	return "stage-2 fault: " + op + " of unmapped/forbidden IPA"
}

// Translate resolves ipa for the given access type, returning the PA and
// the cycle cost of the translation. A fault returns a *FaultError along
// with the cycles burned walking the table before faulting.
func (tr *Translator) Translate(ipa IPA, write bool) (PA, cpu.Cycles, error) {
	if e, ok := tr.TLB.Lookup(tr.Table.VMID(), ipa); ok {
		if write && e.Perm&PermW == 0 {
			return 0, 0, &FaultError{IPA: ipa, Write: true}
		}
		return e.PA + PA(ipa&(PageSize-1)), 0, nil
	}
	pa, perm, levels, ok := tr.Table.Walk(ipa)
	cost := cpu.Cycles(levels) * tr.WalkPerLevel
	if !ok {
		return 0, cost, &FaultError{IPA: ipa, Write: write}
	}
	if write && perm&PermW == 0 {
		return 0, cost, &FaultError{IPA: ipa, Write: true}
	}
	tr.TLB.Insert(TLBEntry{VMID: tr.Table.VMID(), Page: ipa, PA: pa - PA(ipa&(PageSize-1)), Perm: perm})
	return pa, cost, nil
}
