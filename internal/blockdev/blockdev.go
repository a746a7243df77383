// Package blockdev models the storage path of the paper's testbed: the ARM
// server's SATA3 SSD (§III), virtualized with virtio-blk (cache=none) under
// KVM and the in-kernel blkback under Xen.
//
// Block I/O is not part of Figure 4, but the paper's configuration section
// fixes these backends, and the storage path exercises the same I/O-model
// asymmetry as networking: KVM's host-resident backend touches guest memory
// directly, while Xen's Dom0 backend needs the grant mechanism — with the
// twist that block rings use *persistent grants* (pages granted once and
// reused), trading the per-request grant cost for a data copy into the
// persistently granted pool. The disk experiment extends the paper's
// analysis to that design point.
package blockdev

import (
	"fmt"

	"armvirt/internal/cpu"
	"armvirt/internal/obs"
	"armvirt/internal/sim"
	"armvirt/internal/telemetry"
)

// Disk models a storage device as a single service center: requests queue,
// then pay a fixed access latency plus a size-dependent transfer time.
type Disk struct {
	eng *sim.Engine
	res *sim.Resource
	// FixedLatency is the per-request access cost (SSD: ~80 µs flash
	// read), in cycles.
	FixedLatency sim.Time
	// CyclesPerByte is the media transfer rate.
	CyclesPerByte float64
	// Rec, when non-nil, receives cycle attribution for request service.
	Rec *obs.Recorder
	// Tel, when non-nil, counts served requests in the machine's
	// telemetry sampler.
	Tel    *telemetry.Sampler
	served int64
}

// DiskSpec describes a device.
type DiskSpec struct {
	// FixedLatencyUs is the per-request access latency.
	FixedLatencyUs float64
	// MBPerSec is the sustained media bandwidth.
	MBPerSec float64
}

// SSDSpec is the ARM server's 120 GB SATA3 SSD.
func SSDSpec() DiskSpec { return DiskSpec{FixedLatencyUs: 80, MBPerSec: 450} }

// NewDisk builds a disk on eng with the given spec at freqMHz.
func NewDisk(eng *sim.Engine, name string, spec DiskSpec, freqMHz int) *Disk {
	cyclesPerSec := float64(freqMHz) * 1e6
	return &Disk{
		eng:           eng,
		res:           sim.NewResource(eng, name),
		FixedLatency:  sim.Time(spec.FixedLatencyUs * float64(freqMHz)),
		CyclesPerByte: cyclesPerSec / (spec.MBPerSec * 1e6),
	}
}

// Serve executes one request of n bytes, queuing behind outstanding
// requests (cache=none: every request reaches the device).
func (d *Disk) Serve(p *sim.Proc, n int) {
	d.res.Acquire(p)
	cost := d.FixedLatency + sim.Time(float64(n)*d.CyclesPerByte)
	d.Rec.ChargeCycles(p, "disk service", int64(cost))
	d.Tel.Count(p.Now(), -1, telemetry.CtrDiskReq, 1)
	p.Sleep(cost)
	d.served++
	d.res.Release(p)
}

// Served returns the completed request count.
func (d *Disk) Served() int64 { return d.served }

// Request is one block I/O operation.
type Request struct {
	Seq   int64
	Bytes int
	Write bool
	// Submitted/Completed are measurement timestamps.
	Submitted sim.Time
	Completed sim.Time
}

// Latency returns the request's end-to-end latency in cycles.
func (r *Request) Latency() cpu.Cycles { return cpu.Cycles(r.Completed - r.Submitted) }

func (r *Request) String() string {
	op := "read"
	if r.Write {
		op = "write"
	}
	return fmt.Sprintf("req%d %s %dB", r.Seq, op, r.Bytes)
}
