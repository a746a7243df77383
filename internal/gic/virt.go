package gic

import "fmt"

// LRState is the state of one list register, following the GICv2
// virtualization extensions state machine.
type LRState int

const (
	// LRInvalid means the list register is free.
	LRInvalid LRState = iota
	// LRPending means the virtual interrupt is pending delivery to the
	// guest.
	LRPending
	// LRActive means the guest has acknowledged the interrupt and is
	// handling it.
	LRActive
)

func (s LRState) String() string {
	switch s {
	case LRInvalid:
		return "invalid"
	case LRPending:
		return "pending"
	case LRActive:
		return "active"
	}
	return fmt.Sprintf("LRState(%d)", int(s))
}

// ListRegister is one GICH_LR entry.
type ListRegister struct {
	VirtID IRQ
	State  LRState
	// HW links the virtual interrupt to a physical one so the guest's
	// EOI also completes the physical interrupt (used for passthrough;
	// unused with paravirtual I/O, matching the paper's configuration).
	HW     bool
	PhysID IRQ
}

// DefaultNumLRs is the list-register count of the GIC-400 class hardware in
// the paper's ARM servers.
const DefaultNumLRs = 4

// VirtualIface is the per-PCPU GIC virtual CPU interface: the hardware the
// hypervisor programs to inject virtual interrupts and whose state (the
// VGIC register class) must be context switched — at great cost, per
// Table III — when a split-mode hypervisor switches between VM and host.
//
// When all list registers are full, additional pending virtual interrupts
// spill to a software overflow queue (as KVM's vgic does); the hypervisor
// refills list registers when the guest EOIs.
type VirtualIface struct {
	lrs      []ListRegister
	overflow []IRQ
	// maint is invoked when the guest completes an interrupt while the
	// overflow queue is non-empty — the maintenance-interrupt condition
	// real hardware raises so the hypervisor can refill LRs.
	maint func()
}

// NewVirtualIface creates a virtual CPU interface with n list registers.
func NewVirtualIface(n int, maint func()) *VirtualIface {
	if n <= 0 {
		panic("gic: virtual interface needs at least one list register")
	}
	return &VirtualIface{lrs: make([]ListRegister, n), maint: maint}
}

// NumLRs returns the list register count.
func (v *VirtualIface) NumLRs() int { return len(v.lrs) }

// LR returns a copy of list register i.
func (v *VirtualIface) LR(i int) ListRegister { return v.lrs[i] }

// OverflowLen returns the number of spilled pending interrupts.
func (v *VirtualIface) OverflowLen() int { return len(v.overflow) }

// Inject makes virq pending for the guest. If a list register is free it is
// programmed directly; otherwise the interrupt spills to the overflow
// queue. Injecting an interrupt that is already pending (in an LR or the
// overflow queue) collapses with the existing one, as level-triggered GIC
// semantics do. Returns true if a hardware LR was programmed.
func (v *VirtualIface) Inject(virq IRQ) bool {
	for i := range v.lrs {
		if v.lrs[i].State != LRInvalid && v.lrs[i].VirtID == virq {
			return true // already pending/active; collapses
		}
	}
	for _, q := range v.overflow {
		if q == virq {
			return false
		}
	}
	for i := range v.lrs {
		if v.lrs[i].State == LRInvalid {
			v.lrs[i] = ListRegister{VirtID: virq, State: LRPending}
			return true
		}
	}
	v.overflow = append(v.overflow, virq)
	return false
}

// PendingVirq returns the lowest-numbered pending virtual interrupt in the
// list registers, or -1 if none (what the guest's IAR read would return).
func (v *VirtualIface) PendingVirq() IRQ {
	best := IRQ(-1)
	for i := range v.lrs {
		if v.lrs[i].State == LRPending {
			if best == -1 || v.lrs[i].VirtID < best {
				best = v.lrs[i].VirtID
			}
		}
	}
	return best
}

// Ack transitions the given pending virtual interrupt to active, as the
// guest's read of the IAR does. No trap is taken; the caller pays the
// hardware cost. Panics if virq is not pending — guests cannot acknowledge
// interrupts that were never injected.
func (v *VirtualIface) Ack(virq IRQ) {
	for i := range v.lrs {
		if v.lrs[i].VirtID == virq && v.lrs[i].State == LRPending {
			v.lrs[i].State = LRActive
			return
		}
	}
	panic(fmt.Sprintf("gic: guest ack of virq %d which is not pending", virq))
}

// Complete finishes handling of an active virtual interrupt (the guest's
// EOI/DIR write), freeing its list register without any trap. If spilled
// interrupts are waiting, the maintenance callback fires so the hypervisor
// can refill — this is the only case where completion involves the
// hypervisor, matching the hardware. Panics if virq is not active.
func (v *VirtualIface) Complete(virq IRQ) {
	for i := range v.lrs {
		if v.lrs[i].VirtID == virq && v.lrs[i].State == LRActive {
			v.lrs[i] = ListRegister{}
			if len(v.overflow) > 0 && v.maint != nil {
				v.maint()
			}
			return
		}
	}
	panic(fmt.Sprintf("gic: guest EOI of virq %d which is not active", virq))
}

// RefillFromOverflow moves spilled interrupts into free list registers.
// Called by the hypervisor from its maintenance-interrupt handler (or on VM
// entry). Returns how many were promoted.
func (v *VirtualIface) RefillFromOverflow() int {
	n := 0
	for len(v.overflow) > 0 {
		placed := false
		for i := range v.lrs {
			if v.lrs[i].State == LRInvalid {
				v.lrs[i] = ListRegister{VirtID: v.overflow[0], State: LRPending}
				v.overflow = v.overflow[1:]
				n++
				placed = true
				break
			}
		}
		if !placed {
			break
		}
	}
	return n
}

// Image is a snapshot of the virtual interface state, used when a
// hypervisor context switches the VGIC register class to memory.
type Image struct {
	LRs      []ListRegister
	Overflow []IRQ
}

// SaveImage copies the interface state out of the "hardware". The caller
// pays the (large) VGIC save cost from the platform cost model.
func (v *VirtualIface) SaveImage() Image {
	img := Image{LRs: make([]ListRegister, len(v.lrs)), Overflow: append([]IRQ(nil), v.overflow...)}
	copy(img.LRs, v.lrs)
	return img
}

// LoadImage restores interface state saved by SaveImage.
func (v *VirtualIface) LoadImage(img Image) {
	if len(img.LRs) != len(v.lrs) {
		panic("gic: LoadImage with mismatched list register count")
	}
	copy(v.lrs, img.LRs)
	v.overflow = append(v.overflow[:0], img.Overflow...)
}

// HasPendingOrActive reports whether any interrupt is in flight, including
// spilled ones.
func (v *VirtualIface) HasPendingOrActive() bool {
	for i := range v.lrs {
		if v.lrs[i].State != LRInvalid {
			return true
		}
	}
	return len(v.overflow) > 0
}
