package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMapWalkRoundTrip(t *testing.T) {
	s2 := NewS2Table(1)
	if err := s2.Map(0x1000, 0x80001000, PermRW); err != nil {
		t.Fatal(err)
	}
	pa, perm, levels, ok := s2.Walk(0x1234)
	if !ok {
		t.Fatal("walk failed")
	}
	if pa != 0x80001234 {
		t.Fatalf("pa = %#x, want 0x80001234", uint64(pa))
	}
	if perm != PermRW {
		t.Fatalf("perm = %v", perm)
	}
	if levels != Levels {
		t.Fatalf("levels = %d, want %d", levels, Levels)
	}
}

func TestWalkUnmappedReportsPartialLevels(t *testing.T) {
	s2 := NewS2Table(1)
	_, _, levels, ok := s2.Walk(0x5000)
	if ok {
		t.Fatal("unmapped walk succeeded")
	}
	if levels != 1 {
		t.Fatalf("empty tree walk touched %d levels, want 1", levels)
	}
	// Map a neighbour in the same last-level table: the walk for the
	// still-unmapped page now touches all levels.
	if err := s2.Map(0x4000, 0x90000000, PermR); err != nil {
		t.Fatal(err)
	}
	_, _, levels, ok = s2.Walk(0x5000)
	if ok || levels != Levels {
		t.Fatalf("walk = (ok=%v, levels=%d), want (false, %d)", ok, levels, Levels)
	}
}

// TestEmptyTableAllocatesNoNode: a table nothing is mapped into costs only
// its header; Walk and Unmap on it read an empty root without building one.
func TestEmptyTableAllocatesNoNode(t *testing.T) {
	var s2 *S2Table
	var levels int
	var unmapped bool
	allocs := testing.AllocsPerRun(100, func() {
		s2 = NewS2Table(1)
		_, _, levels, _ = s2.Walk(0x5000)
		unmapped = s2.Unmap(0x5000)
	})
	if allocs > 1 || s2.root != nil {
		t.Fatalf("empty table: %v allocs per run, root %p; want only the table header", allocs, s2.root)
	}
	if levels != 1 || unmapped {
		t.Fatalf("empty table: walk touched %d levels, Unmap = %v; want 1, false", levels, unmapped)
	}
}

func TestDoubleMapFails(t *testing.T) {
	s2 := NewS2Table(1)
	if err := s2.Map(0x1000, 0x80000000, PermR); err != nil {
		t.Fatal(err)
	}
	if err := s2.Map(0x1000, 0x90000000, PermR); err == nil {
		t.Fatal("double map should fail")
	}
}

func TestUnmap(t *testing.T) {
	s2 := NewS2Table(1)
	_ = s2.Map(0x1000, 0x80000000, PermR)
	if !s2.Unmap(0x1000) {
		t.Fatal("unmap failed")
	}
	if s2.Unmap(0x1000) {
		t.Fatal("second unmap should report not-mapped")
	}
	if _, _, ok := s2.Lookup(0x1000); ok {
		t.Fatal("lookup after unmap succeeded")
	}
	if s2.Mapped() != 0 {
		t.Fatalf("mapped = %d, want 0", s2.Mapped())
	}
}

func TestMapRejectsBadArgs(t *testing.T) {
	s2 := NewS2Table(1)
	if err := s2.Map(0x1000, 0x8000_0001, PermR); err == nil {
		t.Fatal("unaligned PA accepted")
	}
	if err := s2.Map(0x1000, 0x80000000, PermW); err == nil {
		t.Fatal("write-only mapping accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("unaligned IPA should panic")
			}
		}()
		_ = s2.Map(0x1001, 0x80000000, PermR)
	}()
}

func TestMapRange(t *testing.T) {
	s2 := NewS2Table(3)
	if err := s2.MapRange(0x10000, 0xA0000000, 16, PermRWX); err != nil {
		t.Fatal(err)
	}
	if s2.Mapped() != 16 {
		t.Fatalf("mapped = %d, want 16", s2.Mapped())
	}
	pa, _, ok := s2.Lookup(0x10000 + 15*PageSize + 7)
	if !ok || pa != 0xA0000000+15*PageSize+7 {
		t.Fatalf("pa = %#x ok=%v", uint64(pa), ok)
	}
}

// Property: Map then Walk returns exactly the mapped PA+offset for any set
// of distinct pages; Unmap removes precisely the unmapped page.
func TestS2RoundTripProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s2 := NewS2Table(1)
		pages := map[IPA]PA{}
		for i := 0; i < int(n%64)+1; i++ {
			ipa := IPA(rng.Intn(1<<20)) << PageShift
			pa := PA(rng.Intn(1<<20)) << PageShift
			if _, dup := pages[ipa]; dup {
				continue
			}
			if s2.Map(ipa, pa, PermRW) != nil {
				return false
			}
			pages[ipa] = pa
		}
		for ipa, pa := range pages {
			off := IPA(rng.Intn(PageSize))
			got, _, ok := s2.Lookup(ipa + off)
			if !ok || got != pa+PA(off) {
				return false
			}
		}
		// unmap half
		i := 0
		for ipa := range pages {
			if i%2 == 0 {
				if !s2.Unmap(ipa) {
					return false
				}
				delete(pages, ipa)
			}
			i++
		}
		if s2.Mapped() != len(pages) {
			return false
		}
		for ipa, pa := range pages {
			got, _, ok := s2.Lookup(ipa)
			if !ok || got != pa {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTLBHitMissAndEviction(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Insert(TLBEntry{VMID: 1, Page: 0x1000, PA: 0x80000000, Perm: PermRW})
	tlb.Insert(TLBEntry{VMID: 1, Page: 0x2000, PA: 0x80002000, Perm: PermRW})
	if _, ok := tlb.Lookup(1, 0x1abc); !ok {
		t.Fatal("expected hit")
	}
	// 0x2000 is now LRU; inserting a third evicts it.
	tlb.Insert(TLBEntry{VMID: 1, Page: 0x3000, PA: 0x80003000, Perm: PermRW})
	if _, ok := tlb.Lookup(1, 0x2000); ok {
		t.Fatal("LRU entry should have been evicted")
	}
	if _, ok := tlb.Lookup(1, 0x1000); !ok {
		t.Fatal("recently used entry should remain")
	}
	hits, misses := tlb.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("stats = %d/%d, want 2/1", hits, misses)
	}
}

func TestTLBVMIDTaggingAndInvalidate(t *testing.T) {
	tlb := NewTLB(8)
	tlb.Insert(TLBEntry{VMID: 1, Page: 0x1000, PA: 0x80000000, Perm: PermR})
	tlb.Insert(TLBEntry{VMID: 2, Page: 0x1000, PA: 0x90000000, Perm: PermR})
	e1, _ := tlb.Lookup(1, 0x1000)
	e2, _ := tlb.Lookup(2, 0x1000)
	if e1.PA == e2.PA {
		t.Fatal("VMID tagging broken")
	}
	tlb.InvalidateVMID(1)
	if _, ok := tlb.Lookup(1, 0x1000); ok {
		t.Fatal("VMID 1 should be flushed")
	}
	if _, ok := tlb.Lookup(2, 0x1000); !ok {
		t.Fatal("VMID 2 should survive")
	}
	tlb.InvalidatePage(2, 0x1000)
	if tlb.Len() != 0 {
		t.Fatalf("len = %d, want 0", tlb.Len())
	}
}

func TestTranslatorCostAccounting(t *testing.T) {
	s2 := NewS2Table(1)
	_ = s2.Map(0x1000, 0x80000000, PermRW)
	tr := &Translator{Table: s2, TLB: NewTLB(16), WalkPerLevel: 30}
	pa, cost, err := tr.Translate(0x1008, false)
	if err != nil {
		t.Fatal(err)
	}
	if pa != 0x80000008 {
		t.Fatalf("pa = %#x", uint64(pa))
	}
	if cost != 30*Levels {
		t.Fatalf("miss cost = %d, want %d", cost, 30*Levels)
	}
	_, cost, err = tr.Translate(0x1010, false)
	if err != nil || cost != 0 {
		t.Fatalf("hit: cost=%d err=%v, want 0,nil", cost, err)
	}
}

func TestTranslatorFaults(t *testing.T) {
	s2 := NewS2Table(1)
	_ = s2.Map(0x1000, 0x80000000, PermR)
	tr := &Translator{Table: s2, TLB: NewTLB(16), WalkPerLevel: 30}
	if _, _, err := tr.Translate(0x9000, false); err == nil {
		t.Fatal("unmapped access should fault")
	}
	if _, _, err := tr.Translate(0x1000, true); err == nil {
		t.Fatal("write to read-only should fault")
	}
	// Permission fault must also be caught on the TLB-hit path.
	if _, _, err := tr.Translate(0x1000, false); err != nil {
		t.Fatal("read of read-only page should succeed")
	}
	if _, _, err := tr.Translate(0x1000, true); err == nil {
		t.Fatal("write must fault even on TLB hit")
	}
}

// Property: TLB never exceeds capacity and a lookup after insert always
// hits until evicted by capacity pressure.
func TestTLBCapacityProperty(t *testing.T) {
	prop := func(seed int64, capRaw uint8, ops uint8) bool {
		capacity := int(capRaw%16) + 1
		rng := rand.New(rand.NewSource(seed))
		tlb := NewTLB(capacity)
		for i := 0; i < int(ops); i++ {
			page := IPA(rng.Intn(64)) << PageShift
			tlb.Insert(TLBEntry{VMID: 1, Page: page, PA: PA(page) + 0x1000000, Perm: PermRW})
			if tlb.Len() > capacity {
				return false
			}
			if e, ok := tlb.Lookup(1, page); !ok || e.PA != PA(page)+0x1000000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPermString(t *testing.T) {
	if PermRW.String() != "rw-" || PermRWX.String() != "rwx" || Perm(0).String() != "---" {
		t.Fatal("perm strings wrong")
	}
}
