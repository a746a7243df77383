package sched

// CreditState is a VCPU's standing in the credit scheduler.
type CreditState int

// Credit scheduler priorities (Xen's credit1, the paper-era default).
const (
	// CreditUnder means the VCPU has credits remaining: it runs ahead
	// of OVER VCPUs.
	CreditUnder CreditState = iota
	// CreditOver means the VCPU exhausted its credits.
	CreditOver
)

func (s CreditState) String() string {
	if s == CreditUnder {
		return "UNDER"
	}
	return "OVER"
}

// CreditVCPU is one schedulable entity under the credit scheduler.
type CreditVCPU struct {
	// Name identifies the VCPU ("dom1.v0").
	Name string
	// Weight sets the proportional share (Xen default 256).
	Weight int
	// credits is the current balance, in credit units.
	credits int
}

// State returns UNDER or OVER.
func (v *CreditVCPU) State() CreditState {
	if v.credits > 0 {
		return CreditUnder
	}
	return CreditOver
}

// Credits returns the current balance.
func (v *CreditVCPU) Credits() int { return v.credits }

// CreditScheduler is a single-core model of Xen's credit scheduler: each
// accounting period distributes credits proportionally to weight; VCPUs
// burn credits while running; UNDER VCPUs run before OVER ones, round-robin
// within a class. It models the policy that decides *which* VM switch
// happens; the cost of the switch itself is the hypervisor's SwitchVM path.
type CreditScheduler struct {
	vcpus []*CreditVCPU
	// CreditsPerPeriod is the total credit pool distributed each
	// accounting period (Xen: 300 credits per 30 ms, 10 per tick).
	CreditsPerPeriod int
	// rr tracks the round-robin position within each state class.
	rrUnder, rrOver int
}

// NewCreditScheduler creates a scheduler distributing creditsPerPeriod.
func NewCreditScheduler(creditsPerPeriod int) *CreditScheduler {
	return &CreditScheduler{CreditsPerPeriod: creditsPerPeriod}
}

// Add registers a VCPU with the given weight.
func (s *CreditScheduler) Add(name string, weight int) *CreditVCPU {
	if weight <= 0 {
		panic("sched: credit weight must be positive")
	}
	v := &CreditVCPU{Name: name, Weight: weight}
	s.vcpus = append(s.vcpus, v)
	return v
}

// Refill runs the accounting period: credits are distributed in proportion
// to weight, capped so a sleeper cannot hoard more than one period's
// worth (as Xen caps at 300).
func (s *CreditScheduler) Refill() {
	totalWeight := 0
	for _, v := range s.vcpus {
		totalWeight += v.Weight
	}
	if totalWeight == 0 {
		return
	}
	for _, v := range s.vcpus {
		v.credits += s.CreditsPerPeriod * v.Weight / totalWeight
		if v.credits > s.CreditsPerPeriod {
			v.credits = s.CreditsPerPeriod
		}
	}
}

// PickNext selects the next VCPU to run: round-robin among UNDER VCPUs,
// else round-robin among OVER ones. Returns nil when empty.
func (s *CreditScheduler) PickNext() *CreditVCPU {
	if len(s.vcpus) == 0 {
		return nil
	}
	var under, over []*CreditVCPU
	for _, v := range s.vcpus {
		if v.State() == CreditUnder {
			under = append(under, v)
		} else {
			over = append(over, v)
		}
	}
	if len(under) > 0 {
		s.rrUnder++
		return under[s.rrUnder%len(under)]
	}
	s.rrOver++
	return over[s.rrOver%len(over)]
}

// Burn charges a VCPU for time consumed (in credit units).
func (s *CreditScheduler) Burn(v *CreditVCPU, credits int) {
	v.credits -= credits
}
