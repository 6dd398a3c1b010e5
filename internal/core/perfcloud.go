package core

import (
	"perfcloud/internal/cloud"
	"perfcloud/internal/cluster"
	"perfcloud/internal/hypervisor"
	"perfcloud/internal/obs"
	"perfcloud/internal/sim"
)

// System is PerfCloud deployed across a cluster: one decentralized node
// manager per physical server, each acting only on its own machine
// (§III-D, Fig. 8). There is no central controller — the managers share
// nothing but the cloud manager's read-only VM metadata.
type System struct {
	managers []*NodeManager
}

// alertTicker evaluates the alert engine every IntervalSec of simulated
// time, registered at priority +2 so every manager's control interval —
// and the events it emits — lands before the rules are checked.
type alertTicker struct {
	eng      *obs.AlertEngine
	interval float64
	next     float64
}

// Tick implements sim.Tickable.
func (a *alertTicker) Tick(c *sim.Clock) {
	now := c.Seconds()
	if now < a.next {
		return
	}
	a.next = now + a.interval
	a.eng.Eval(now)
}

// Attach deploys PerfCloud on every server of the cluster and registers
// the agents with the engine at priority +1, after the resource pipeline,
// so each control interval observes completed measurements.
func Attach(eng *sim.Engine, cl *cluster.Cluster, cm *cloud.Manager, cfg Config) *System {
	sys := &System{}
	if cfg.Alerts != nil {
		// The rule engine consumes the same audit stream the Events sink
		// sees; fan the managers' emissions out to both. The engine's own
		// alert events go to whatever output sink it was constructed with
		// (and it ignores EventAlert on input, so sharing a sink is safe).
		if cfg.Events != nil {
			cfg.Events = obs.MultiSink{cfg.Events, cfg.Alerts}
		} else {
			cfg.Events = cfg.Alerts
		}
	}
	if cfg.Health != nil {
		cl.SetHealth(cfg.Health)
	}
	cl.EachServer(func(srv *cluster.Server) {
		nm := NewNodeManager(cfg, cm, hypervisor.New(srv))
		sys.managers = append(sys.managers, nm)
		eng.RegisterPriority(nm, 1)
	})
	if cfg.Alerts != nil {
		eng.RegisterPriority(&alertTicker{eng: cfg.Alerts, interval: cfg.IntervalSec}, 2)
	}
	return sys
}

// Managers returns a copy of the per-server agents in server order.
func (s *System) Managers() []*NodeManager { return append([]*NodeManager(nil), s.managers...) }

// EachManager calls fn for every agent in server order without copying
// the manager slice — the per-interval alternative to Managers() for
// exposition and status paths (matching the EachDomain/EachVMOnServer
// convention). fn must not attach or detach managers.
func (s *System) EachManager(fn func(*NodeManager)) {
	for _, nm := range s.managers {
		fn(nm)
	}
}

// Manager returns the agent for the given server id, or nil.
func (s *System) Manager(serverID string) *NodeManager {
	for _, nm := range s.managers {
		if nm.ServerID() == serverID {
			return nm
		}
	}
	return nil
}
