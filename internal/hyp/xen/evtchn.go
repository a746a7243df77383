package xen

import "fmt"

// Port is an event channel port number.
type Port int

// ChannelState is the lifecycle state of an event channel.
type ChannelState int

// Channel states.
const (
	// ChanFree means the port is unallocated.
	ChanFree ChannelState = iota
	// ChanUnbound means allocated, awaiting the remote domain's bind.
	ChanUnbound
	// ChanInterdomain means connected between two domains.
	ChanInterdomain
)

func (s ChannelState) String() string {
	switch s {
	case ChanFree:
		return "free"
	case ChanUnbound:
		return "unbound"
	case ChanInterdomain:
		return "interdomain"
	}
	return fmt.Sprintf("ChannelState(%d)", int(s))
}

// channel is one event channel's hypervisor-side state.
type channel struct {
	state ChannelState
	// owner allocated the port; remote is the peer domain.
	owner, remote int
	// remotePort is the peer's port number.
	remotePort Port
}

// EvtchnTable is the per-domain event channel state Xen maintains: port
// allocation, interdomain binding, and the pending bitmap whose scan is
// the guest-side upcall cost (the paper-era 2-level scan is what the
// UpcallDispatch constant models).
type EvtchnTable struct {
	domid    int
	channels map[Port]*channel
	pending  map[Port]bool
	nextPort Port
}

// NewEvtchnTable creates a domain's event channel table.
func NewEvtchnTable(domid int) *EvtchnTable {
	return &EvtchnTable{
		domid:    domid,
		channels: map[Port]*channel{},
		pending:  map[Port]bool{},
	}
}

// AllocUnbound allocates a port awaiting a bind from remote
// (EVTCHNOP_alloc_unbound).
func (t *EvtchnTable) AllocUnbound(remote int) Port {
	t.nextPort++
	p := t.nextPort
	t.channels[p] = &channel{state: ChanUnbound, owner: t.domid, remote: remote}
	return p
}

// BindInterdomain connects local port allocation to a remote domain's
// unbound port (EVTCHNOP_bind_interdomain). Both tables are updated.
func (t *EvtchnTable) BindInterdomain(remoteTable *EvtchnTable, remotePort Port) (Port, error) {
	rc, ok := remoteTable.channels[remotePort]
	if !ok || rc.state != ChanUnbound {
		return 0, fmt.Errorf("xen: remote port %d not unbound", remotePort)
	}
	if rc.remote != t.domid {
		return 0, fmt.Errorf("xen: port %d reserved for dom%d, not dom%d", remotePort, rc.remote, t.domid)
	}
	t.nextPort++
	p := t.nextPort
	t.channels[p] = &channel{state: ChanInterdomain, owner: t.domid, remote: remoteTable.domid, remotePort: remotePort}
	rc.state = ChanInterdomain
	rc.remotePort = p
	return p, nil
}

// Send marks the peer's port pending (EVTCHNOP_send). Returns the peer
// port so the caller can deliver the upcall. Fails on unconnected ports.
func (t *EvtchnTable) Send(peer *EvtchnTable, local Port) (Port, error) {
	c, ok := t.channels[local]
	if !ok || c.state != ChanInterdomain {
		return 0, fmt.Errorf("xen: send on %v port %d", t.stateOf(local), local)
	}
	peer.pending[c.remotePort] = true
	return c.remotePort, nil
}

func (t *EvtchnTable) stateOf(p Port) ChannelState {
	if c, ok := t.channels[p]; ok {
		return c.state
	}
	return ChanFree
}

// ScanPending returns the pending ports in ascending order and clears
// their pending bits — the guest upcall's 2-level bitmap scan.
func (t *EvtchnTable) ScanPending() []Port {
	var out []Port
	for p := Port(1); p <= t.nextPort; p++ {
		if t.pending[p] {
			out = append(out, p)
			delete(t.pending, p)
		}
	}
	return out
}

// HasPending reports whether any port is pending.
func (t *EvtchnTable) HasPending() bool { return len(t.pending) > 0 }

// State returns a port's lifecycle state.
func (t *EvtchnTable) State(p Port) ChannelState { return t.stateOf(p) }
