package workload

import (
	"fmt"

	"armvirt/internal/gic"
	"armvirt/internal/hw"
	"armvirt/internal/sched"
	"armvirt/internal/sim"
)

// FleetParams sizes the fleet scenario. Zero fields take the defaults in
// parentheses.
type FleetParams struct {
	// Fibers is the number of fibers per CPU: one leader plus a ring of
	// token-passing workers (16).
	Fibers int
	// Tokens is the number of tokens the leader keeps in flight per
	// epoch (8).
	Tokens int
	// Hops is how many worker-to-worker hops each token makes before it
	// returns to the leader (25).
	Hops int
	// Epochs is the number of local-work/IPI-barrier rounds (10).
	Epochs int
	// HopCycles is the compute charged per hop (200).
	HopCycles int64
	// ContendRounds is the number of serialized run-queue rounds each
	// worker executes in the closing contended phase (4). Every worker on
	// a CPU races for one dispatcher slot, so all but the holder accrue
	// steal time — the telemetry the phase exists to exercise.
	ContendRounds int
	// ContendCycles is the exclusive work per contended round (400).
	ContendCycles int64
	// IRQ is the SGI number the epoch barrier uses (1).
	IRQ gic.IRQ
}

func (pr FleetParams) withDefaults() FleetParams {
	if pr.Fibers == 0 {
		pr.Fibers = 16
	}
	if pr.Tokens == 0 {
		pr.Tokens = 8
	}
	if pr.Hops == 0 {
		pr.Hops = 25
	}
	if pr.Epochs == 0 {
		pr.Epochs = 10
	}
	if pr.HopCycles == 0 {
		pr.HopCycles = 200
	}
	if pr.ContendRounds == 0 {
		pr.ContendRounds = 4
	}
	if pr.ContendCycles == 0 {
		pr.ContendCycles = 400
	}
	if pr.Fibers < 2 {
		panic("workload: fleet needs at least a leader and one worker per CPU")
	}
	return pr
}

// FleetCPU is one CPU's share of a fleet run.
type FleetCPU struct {
	// Hops is the number of token hops the CPU's worker ring executed.
	Hops int
	// IPIs is the number of barrier IPIs the CPU's leader received.
	IPIs int
	// Checksum folds every hop and IRQ delivery with its simulated
	// timestamp — any ordering or timing divergence changes it.
	Checksum uint64
}

// FleetResult reports a fleet run.
type FleetResult struct {
	// CPUs is the physical core count; Parts the engine partition count
	// (CPUs+1 on a partitioned machine, 1 otherwise).
	CPUs, Parts int
	// Hops and IPIs aggregate the per-CPU counters.
	Hops, IPIs int
	// Elapsed is the simulated time of the slowest leader; ElapsedUs
	// converts it on the machine's clock.
	Elapsed   sim.Time
	ElapsedUs float64
	// Checksum folds the per-CPU checksums in CPU order.
	Checksum uint64
	// PerCPU holds each CPU's counters in CPU order.
	PerCPU []FleetCPU
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fold(h, v uint64) uint64 { return (h ^ v) * fnvPrime }

// fleetToken is one unit of work circulating a CPU's worker ring.
type fleetToken struct {
	left int
	stop bool
}

// Fleet runs a hackbench-style native scenario on every CPU of a machine
// at once — the workload the parallel engine exists for. Each CPU hosts a
// leader and a ring of worker fibers: per epoch the leader injects tokens
// that hop worker-to-worker through partition-local queues (lots of
// sleeping and waking, as §V describes hackbench), collects them, then
// synchronizes with its neighbours by sending a rescheduling IPI around
// the CPU ring and waiting for the one from its predecessor. All
// cross-CPU traffic therefore rides the machine's IPI path — exactly the
// lookahead-bounded channel a partitioned machine routes through SendTo —
// while the token churn stays CPU-local. The per-CPU checksums fold every
// hop with its simulated timestamp, so a byte-identical claim across
// partitioned and serial machines is falsifiable from the result alone.
func Fleet(m *hw.Machine, pr FleetParams) FleetResult {
	pr = pr.withDefaults()
	eng := m.Eng
	n := m.NCPU()
	res := FleetResult{CPUs: n, Parts: eng.Partitions(), PerCPU: make([]FleetCPU, n)}
	finish := make([]sim.Time, n) // per-CPU slot: leaders may run on parallel partitions
	wfin := make([]sim.Time, n)   // per-CPU max worker finish (contended phase)

	for c := 0; c < n; c++ {
		c := c
		st := &res.PerCPU[c]
		st.Checksum = fold(fnvOffset, uint64(c))
		part := m.PartOf(c)
		// rq is the CPU's single run-queue slot for the contended closing
		// phase: workers racing for it model an oversubscribed scheduler
		// and feed the steal-time and run-queue-depth telemetry series.
		rq := sched.NewDispatcher(eng, fmt.Sprintf("fleet%d.rq", c), 1)
		rq.Rec = m.Rec
		rq.Tel = m.Tel
		rq.TelCPU = []int{c}
		inbox := make([]*sim.Queue[fleetToken], pr.Fibers)
		for f := 0; f < pr.Fibers; f++ {
			inbox[f] = sim.NewQueue[fleetToken](eng, fmt.Sprintf("fleet%d.in%d", c, f))
		}
		done := sim.NewQueue[fleetToken](eng, fmt.Sprintf("fleet%d.done", c))
		// next routes tokens around the worker ring (fiber 0 is the
		// leader and stays out of it).
		next := func(f int) int {
			if f+1 < pr.Fibers {
				return f + 1
			}
			return 1
		}
		for f := 1; f < pr.Fibers; f++ {
			f := f
			eng.GoOn(part, fmt.Sprintf("fleet%d.w%d", c, f), func(p *sim.Proc) {
				for {
					tok := inbox[f].Recv(p)
					if tok.stop {
						if next(f) != 1 {
							inbox[next(f)].Send(tok)
						}
						// Contended phase: every worker funnels through
						// the CPU's one run-queue slot, so all but the
						// current holder wait — measurable steal time.
						// The checksum folds each round's completion
						// time, keeping the phase byte-falsifiable.
						for r := 0; r < pr.ContendRounds; r++ {
							rq.ExecOn(p, 0, sim.Time(pr.ContendCycles))
							st.Checksum = fold(st.Checksum, uint64(f)<<32|uint64(r))
							st.Checksum = fold(st.Checksum, uint64(p.Now()))
						}
						if p.Now() > wfin[c] {
							wfin[c] = p.Now()
						}
						return
					}
					m.Rec.ChargeCycles(p, "fleet hop", pr.HopCycles)
					p.Sleep(sim.Time(pr.HopCycles))
					st.Hops++
					st.Checksum = fold(st.Checksum, uint64(f)<<32|uint64(tok.left))
					st.Checksum = fold(st.Checksum, uint64(p.Now()))
					tok.left--
					if tok.left == 0 {
						done.Send(tok)
						continue
					}
					inbox[next(f)].Send(tok)
				}
			})
		}
		eng.GoOn(part, fmt.Sprintf("fleet%d.leader", c), func(p *sim.Proc) {
			for e := 0; e < pr.Epochs; e++ {
				for t := 0; t < pr.Tokens; t++ {
					inbox[1+t%(pr.Fibers-1)].Send(fleetToken{left: pr.Hops})
				}
				for t := 0; t < pr.Tokens; t++ {
					done.Recv(p)
				}
				// Epoch barrier: kick the next CPU, wait for the
				// previous one's kick.
				m.SendIPI(p, (c+1)%n, pr.IRQ)
				dv := m.CPUs[c].IRQ.Recv(p)
				if dv.At > 0 {
					m.Tel.ObserveIRQLatency(c, p.Now()-dv.At)
				}
				st.IPIs++
				st.Checksum = fold(st.Checksum, uint64(dv.IRQ))
				st.Checksum = fold(st.Checksum, uint64(p.Now()))
			}
			inbox[1].Send(fleetToken{stop: true})
			finish[c] = p.Now()
		})
	}
	eng.Run()

	res.Checksum = fnvOffset
	for _, t := range finish {
		if t > res.Elapsed {
			res.Elapsed = t
		}
	}
	for _, t := range wfin {
		if t > res.Elapsed {
			res.Elapsed = t
		}
	}
	for c := range res.PerCPU {
		st := &res.PerCPU[c]
		if want := pr.Epochs * pr.Tokens * pr.Hops; st.Hops != want {
			panic(fmt.Sprintf("workload: fleet cpu %d made %d hops, want %d", c, st.Hops, want))
		}
		res.Hops += st.Hops
		res.IPIs += st.IPIs
		res.Checksum = fold(res.Checksum, st.Checksum)
	}
	res.ElapsedUs = m.Micros(res.Elapsed)
	return res
}

func (r FleetResult) String() string {
	return fmt.Sprintf("%d cpus, %d hops, %d IPIs, %.1fus, checksum %016x",
		r.CPUs, r.Hops, r.IPIs, r.ElapsedUs, r.Checksum)
}
