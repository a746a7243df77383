// Package vio implements the two paravirtual I/O transports the paper
// compares (§II): virtio with an in-kernel vhost backend for KVM, where
// the backend has full access to guest memory and achieves zero-copy I/O;
// and Xen PV with grant tables, where Dom0 may only touch pages the guest
// explicitly granted and data is copied between Dom0 buffers and granted
// pages — the difference §V identifies as the dominant factor in the
// I/O-heavy application results.
package vio

import (
	"fmt"

	"armvirt/internal/mem"
)

// Packet is a unit of network payload moving through the I/O stack.
type Packet struct {
	// Seq identifies the packet.
	Seq int64
	// Bytes is the payload length.
	Bytes int
	// GuestAddr is the IPA of the guest buffer holding (or receiving)
	// the payload, when the transport needs to touch guest memory.
	GuestAddr mem.IPA
	// Stamp carries measurement timestamps keyed by probe point
	// (Table V's tcpdump-style probes).
	Stamp map[string]int64
}

// SetStamp records a probe timestamp on the packet.
func (pk *Packet) SetStamp(key string, t int64) {
	if pk.Stamp == nil {
		pk.Stamp = make(map[string]int64)
	}
	pk.Stamp[key] = t
}

// Ring is a fixed-capacity descriptor ring with virtio-style split
// semantics: the producer posts descriptors into the available ring, the
// consumer pops them and returns them through the used ring.
type Ring struct {
	name string
	size int
	// avail holds posted-but-unconsumed descriptors.
	avail []*Packet
	// used holds consumed-but-unreclaimed descriptors.
	used []*Packet
	// outstanding counts descriptors owned by the ring or the backend:
	// from Post until Reclaim. This is what bounds ring capacity — a
	// descriptor the backend has consumed but not completed still
	// occupies a slot.
	outstanding int
	// posted/completed count ring activity for kick suppression.
	posted    int64
	completed int64
}

// NewRing creates a ring of the given descriptor capacity.
func NewRing(name string, size int) *Ring {
	if size <= 0 {
		panic("vio: ring size must be positive")
	}
	return &Ring{name: name, size: size}
}

// Name returns the ring's diagnostic name.
func (r *Ring) Name() string { return r.name }

// Cap returns the descriptor capacity.
func (r *Ring) Cap() int { return r.size }

// InFlight returns the number of descriptors currently owned by the ring
// or the backend (posted and not yet reclaimed).
func (r *Ring) InFlight() int { return r.outstanding }

// Post adds a descriptor to the available ring. Returns false if the ring
// is full (the driver must wait for completions).
func (r *Ring) Post(pk *Packet) bool {
	if r.outstanding >= r.size {
		return false
	}
	r.avail = append(r.avail, pk)
	r.outstanding++
	r.posted++
	return true
}

// Consume pops the oldest available descriptor (backend side), or nil.
func (r *Ring) Consume() *Packet {
	if len(r.avail) == 0 {
		return nil
	}
	pk := r.avail[0]
	r.avail = r.avail[1:]
	return pk
}

// Complete returns a consumed descriptor through the used ring.
func (r *Ring) Complete(pk *Packet) {
	if len(r.used) >= r.size {
		panic(fmt.Sprintf("vio: used ring overflow on %s", r.name))
	}
	r.used = append(r.used, pk)
	r.completed++
}

// Reclaim pops the oldest used descriptor (driver side), or nil.
func (r *Ring) Reclaim() *Packet {
	if len(r.used) == 0 {
		return nil
	}
	pk := r.used[0]
	r.used = r.used[1:]
	r.outstanding--
	return pk
}
