// Package mem implements the memory-virtualization substrate: Stage-2
// page tables translating a VM's Intermediate Physical Addresses (IPAs) to
// machine Physical Addresses (PAs), a TLB model, and the translation cost
// accounting hypervisors use for fault handling and grant mapping.
//
// The paper's terminology (§II): with Stage-2 translation enabled, ARM
// defines three address spaces — Virtual Addresses (VA), Intermediate
// Physical Addresses (IPA), and Physical Addresses (PA). Stage-2
// translation, configured in EL2, translates IPAs to PAs. The equivalent
// x86 structure is EPT; the model is shared.
package mem

import "fmt"

// IPA is an intermediate physical address (a VM's view of physical memory).
type IPA uint64

// PA is a machine physical address.
type PA uint64

// Page geometry: 4 KB granule, 9 bits per level, 4 levels, 48-bit IPA space
// (the configuration the paper's hosts use).
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	LevelBits = 9
	Levels    = 4
	ipaBits   = PageShift + Levels*LevelBits // 48
)

// Perm is an access permission bitmask.
type Perm uint8

// Permission bits.
const (
	PermR Perm = 1 << iota
	PermW
	PermX
	// PermRW and PermRWX are the common combinations.
	PermRW  = PermR | PermW
	PermRWX = PermR | PermW | PermX
)

func (p Perm) String() string {
	b := []byte("---")
	if p&PermR != 0 {
		b[0] = 'r'
	}
	if p&PermW != 0 {
		b[1] = 'w'
	}
	if p&PermX != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// entry is a leaf PTE.
type entry struct {
	pa   PA
	perm Perm
}

// node is one 512-entry table at some level.
type node struct {
	children [1 << LevelBits]*node  // interior
	leaves   [1 << LevelBits]*entry // level-3 leaves
}

// S2Table is a Stage-2 translation table for one VM: a 4-level radix tree
// over the VM's IPA space, as walked by hardware on a TLB miss.
type S2Table struct {
	vmid int
	// root is allocated by the first Map: many VMs never map a page, and
	// a node is 8 KB. A nil root walks as an empty root table.
	root   *node
	mapped int
}

// NewS2Table creates an empty Stage-2 table tagged with a VMID.
func NewS2Table(vmid int) *S2Table {
	return &S2Table{vmid: vmid}
}

// VMID returns the table's VMID tag.
func (t *S2Table) VMID() int { return t.vmid }

// Mapped returns the number of mapped pages.
func (t *S2Table) Mapped() int { return t.mapped }

func indexAt(ipa IPA, level int) int {
	shift := PageShift + (Levels-1-level)*LevelBits
	return int(ipa>>shift) & (1<<LevelBits - 1)
}

func checkAligned(ipa IPA) {
	if ipa&(PageSize-1) != 0 {
		panic(fmt.Sprintf("mem: unaligned IPA %#x", uint64(ipa)))
	}
	if ipa >= 1<<ipaBits {
		panic(fmt.Sprintf("mem: IPA %#x exceeds %d-bit space", uint64(ipa), ipaBits))
	}
}

// Map installs a 4 KB translation. Mapping an already-mapped page is an
// error (hypervisors must unmap first; this catches double-mapping bugs in
// the grant mechanism).
func (t *S2Table) Map(ipa IPA, pa PA, perm Perm) error {
	checkAligned(ipa)
	if pa&(PageSize-1) != 0 {
		return fmt.Errorf("mem: unaligned PA %#x", uint64(pa))
	}
	if perm&PermR == 0 {
		return fmt.Errorf("mem: mapping %#x without read permission", uint64(ipa))
	}
	if t.root == nil {
		t.root = &node{}
	}
	n := t.root
	for level := 0; level < Levels-1; level++ {
		i := indexAt(ipa, level)
		if n.children[i] == nil {
			n.children[i] = &node{}
		}
		n = n.children[i]
	}
	i := indexAt(ipa, Levels-1)
	if n.leaves[i] != nil {
		return fmt.Errorf("mem: IPA %#x already mapped", uint64(ipa))
	}
	n.leaves[i] = &entry{pa: pa, perm: perm}
	t.mapped++
	return nil
}

// MapRange maps n contiguous pages starting at (ipa, pa).
func (t *S2Table) MapRange(ipa IPA, pa PA, n int, perm Perm) error {
	for i := 0; i < n; i++ {
		off := IPA(i) * PageSize
		if err := t.Map(ipa+off, pa+PA(off), perm); err != nil {
			return err
		}
	}
	return nil
}

// Unmap removes a translation. Returns false if the page was not mapped.
// The caller is responsible for the required TLB invalidation.
func (t *S2Table) Unmap(ipa IPA) bool {
	checkAligned(ipa)
	n := t.root
	if n == nil {
		return false
	}
	for level := 0; level < Levels-1; level++ {
		n = n.children[indexAt(ipa, level)]
		if n == nil {
			return false
		}
	}
	i := indexAt(ipa, Levels-1)
	if n.leaves[i] == nil {
		return false
	}
	n.leaves[i] = nil
	t.mapped--
	return true
}

// Walk performs the hardware page-table walk. It returns the PA and
// permissions, the number of levels touched (for cost accounting), and
// whether the translation exists. A missing translation walks as far as the
// tree exists before faulting, exactly like hardware.
func (t *S2Table) Walk(ipa IPA) (pa PA, perm Perm, levels int, ok bool) {
	if ipa >= 1<<ipaBits {
		return 0, 0, 0, false
	}
	page := ipa &^ (PageSize - 1)
	n := t.root
	if n == nil {
		return 0, 0, 1, false // the empty root table is still read
	}
	for level := 0; level < Levels-1; level++ {
		levels++
		n = n.children[indexAt(page, level)]
		if n == nil {
			return 0, 0, levels, false
		}
	}
	levels++
	e := n.leaves[indexAt(page, Levels-1)]
	if e == nil {
		return 0, 0, levels, false
	}
	return e.pa + PA(ipa-page), e.perm, levels, true
}

// Lookup is Walk without cost detail.
func (t *S2Table) Lookup(ipa IPA) (PA, Perm, bool) {
	pa, perm, _, ok := t.Walk(ipa)
	return pa, perm, ok
}
