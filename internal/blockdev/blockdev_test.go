package blockdev

import (
	"testing"

	"armvirt/internal/platform"
	"armvirt/internal/sim"
)

func TestDiskServiceModel(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDisk(eng, "ssd", SSDSpec(), 2400)
	var done sim.Time
	eng.Go("io", func(p *sim.Proc) {
		d.Serve(p, 4096)
		done = p.Now()
	})
	eng.Run()
	// 80us fixed + 4096B at 450MB/s (~9.1us) at 2400 cycles/us.
	wantLow, wantHigh := sim.Time(88*2400), sim.Time(92*2400)
	if done < wantLow || done > wantHigh {
		t.Fatalf("4K SSD read took %d cycles (%.1fus), want ~89us", done, float64(done)/2400)
	}
	if d.Served() != 1 {
		t.Fatal("served count")
	}
}

func TestDiskQueuesRequests(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDisk(eng, "ssd", SSDSpec(), 2400)
	var last sim.Time
	for i := 0; i < 3; i++ {
		eng.Go("io", func(p *sim.Proc) {
			d.Serve(p, 4096)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	eng.Run()
	single := sim.Time(89 * 2400)
	if last < 3*single*95/100 {
		t.Fatalf("3 requests finished at %d, want ~3x serial service", last)
	}
}

func TestVirtBlockBenchmarkOrdering(t *testing.T) {
	cfg := DefaultBenchConfig()
	cfg.Requests = 100

	natEng := sim.NewEngine()
	nat := RunNative(natEng, NewDisk(natEng, "ssd", SSDSpec(), 2400), 2400, cfg)

	kvmPl := platform.NewKVMARM()
	kvm := RunVirt(kvmPl.KVM, NewDisk(kvmPl.Machine.Eng, "ssd", SSDSpec(), 2400), cfg)

	xenPl := platform.NewXenARM()
	xenR := RunVirt(xenPl.Xen, NewDisk(xenPl.Machine.Eng, "ssd", SSDSpec(), 2400), cfg)

	if !(nat.MeanLatencyUs < kvm.MeanLatencyUs && kvm.MeanLatencyUs < xenR.MeanLatencyUs) {
		t.Errorf("latency ordering wrong: native %.1f, KVM %.1f, Xen %.1f us",
			nat.MeanLatencyUs, kvm.MeanLatencyUs, xenR.MeanLatencyUs)
	}
	if !(nat.IOPS > kvm.IOPS && kvm.IOPS > xenR.IOPS) {
		t.Errorf("IOPS ordering wrong: native %.0f, KVM %.0f, Xen %.0f",
			nat.IOPS, kvm.IOPS, xenR.IOPS)
	}
	// With an SSD, virtualization overhead is visible but bounded: the
	// device still dominates (~89us service vs ~6-15us of I/O path).
	if kvm.MeanLatencyUs > nat.MeanLatencyUs*1.5 {
		t.Errorf("KVM disk latency %.1fus too far above native %.1fus", kvm.MeanLatencyUs, nat.MeanLatencyUs)
	}
}

func TestPersistentGrantsBeatMapUnmap(t *testing.T) {
	cfg := DefaultBenchConfig()
	cfg.Requests = 100
	cfg.QueueDepth = 1 // isolate the per-request path from device queueing

	pgPl := platform.NewXenARM()
	pg := RunVirt(pgPl.Xen, NewDisk(pgPl.Machine.Eng, "ssd", SSDSpec(), 2400), cfg)

	cfg2 := cfg
	cfg2.PersistentGrants = false
	muPl := platform.NewXenARM()
	mu := RunVirt(muPl.Xen, NewDisk(muPl.Machine.Eng, "ssd", SSDSpec(), 2400), cfg2)

	// Map/unmap per request pays the broadcast TLBI the paper says made
	// zero-copy unattractive; persistent grants amortize it away.
	if pg.MeanLatencyUs >= mu.MeanLatencyUs {
		t.Errorf("persistent grants (%.1fus) should beat map/unmap (%.1fus)",
			pg.MeanLatencyUs, mu.MeanLatencyUs)
	}
}

func TestVHEImprovesDiskLatencyToo(t *testing.T) {
	cfg := DefaultBenchConfig()
	cfg.Requests = 100
	cfg.QueueDepth = 1 // isolate the per-request path from device queueing
	basePl := platform.NewKVMARM()
	base := RunVirt(basePl.KVM, NewDisk(basePl.Machine.Eng, "ssd", SSDSpec(), 2400), cfg)
	vhePl := platform.NewKVMARMVHE()
	vhe := RunVirt(vhePl.KVM, NewDisk(vhePl.Machine.Eng, "ssd", SSDSpec(), 2400), cfg)
	if vhe.MeanLatencyUs >= base.MeanLatencyUs {
		t.Errorf("VHE disk latency %.1fus should beat split-mode %.1fus",
			vhe.MeanLatencyUs, base.MeanLatencyUs)
	}
}

func TestBenchResultString(t *testing.T) {
	r := BenchResult{Label: "x", IOPS: 100, MeanLatencyUs: 5, P99LatencyUs: 9}
	if len(r.String()) == 0 {
		t.Fatal("empty render")
	}
}
