package experiments

import (
	"fmt"
	"time"

	"perfcloud/internal/cloud"
	"perfcloud/internal/cluster"
	"perfcloud/internal/core"
	"perfcloud/internal/dfs"
	"perfcloud/internal/exec"
	"perfcloud/internal/mapreduce"
	"perfcloud/internal/sim"
	"perfcloud/internal/trace"
	"perfcloud/internal/workloads"
)

// This file implements the paper's §IV-D2 future-work directions as
// working extensions: (a) heterogeneous server fleets, where PerfCloud's
// decentralized design is blind to slow machines and application-level
// speculation complements it; (b) escalation to VM migration when
// multiple high-priority applications collide on one server.

// SchemeHybrid combines PerfCloud with LATE speculative execution — the
// complementary deployment the paper proposes for heterogeneous fleets.
func SchemeHybrid() Scheme {
	return Scheme{Name: "PerfCloud+LATE", NewSpeculator: newLATE, Clones: 1, PerfCloud: true}
}

// HeteroRow is one scheme's outcome on the heterogeneous fleet.
type HeteroRow struct {
	Scheme  string
	MeanJCT float64
}

// HeteroResult compares default, LATE, PerfCloud and the hybrid on a
// fleet where a third of the servers run at half speed, with a fio
// antagonist on one fast server. PerfCloud throttles the antagonist but
// cannot fix the slow hardware; LATE rescues slow-server stragglers but
// not the antagonized ones efficiently; the hybrid addresses both.
type HeteroResult struct {
	Rows []HeteroRow
}

// Heterogeneous runs repeated terasort jobs on a 6-server fleet (2 slow)
// under each scheme. The four schemes are independent testbeds, so they
// run concurrently (bounded by MaxParallelRuns), each writing its own row.
func Heterogeneous(seed int64) HeteroResult {
	schemes := []Scheme{SchemeDefault(), SchemeLATE(), SchemePerfCloud(), SchemeHybrid()}
	rows := make([]HeteroRow, len(schemes))
	forEachRun(len(schemes), func(si int) {
		sch := schemes[si]
		var pc *core.Config
		if sch.PerfCloud {
			pc = ControllerConfig()
		}
		tb := NewTestbed(TestbedConfig{
			Seed:             seed,
			Servers:          6,
			SlowServers:      2,
			SlowFactor:       0.35,
			WorkersPerServer: 6,
			Speculator:       sch.speculator(),
			PerfCloud:        pc,
		})
		tb.MustInput("input", 40*(64<<20)) // 40 maps over 72 slots
		tb.AddAntagonist(0, workloads.NewFioRandRead(
			workloads.BurstPattern{StartOffset: 10 * time.Second, On: 25 * time.Second, Off: 10 * time.Second}))

		// Terasort jobs back-to-back for four minutes; average the JCTs.
		var jcts []float64
		job, err := tb.JT.Submit(mapreduce.Terasort("input", 12), 0)
		if err != nil {
			panic(err)
		}
		for tb.Eng.Clock().Seconds() < 240 {
			tb.Eng.Step()
			if job.Done() {
				jcts = append(jcts, job.JCT())
				job, err = tb.JT.Submit(mapreduce.Terasort("input", 12), tb.Eng.Clock().Seconds())
				if err != nil {
					panic(err)
				}
			}
		}
		var sum float64
		for _, v := range jcts {
			sum += v
		}
		rows[si] = HeteroRow{Scheme: sch.Name, MeanJCT: sum / float64(len(jcts))}
	})
	return HeteroResult{Rows: rows}
}

// Row returns the named scheme's row.
func (r HeteroResult) Row(name string) HeteroRow {
	for _, row := range r.Rows {
		if row.Scheme == name {
			return row
		}
	}
	return HeteroRow{}
}

// Table renders the heterogeneous-fleet comparison.
func (r HeteroResult) Table() *trace.Table {
	base := r.Row("default").MeanJCT
	t := trace.New("Extension (§IV-D2): heterogeneous fleet (2 of 6 servers at half speed) + fio antagonist",
		"scheme", "mean JCT (s)", "norm JCT")
	for _, row := range r.Rows {
		t.Addf(row.Scheme, row.MeanJCT, row.MeanJCT/base)
	}
	return t
}

// MigrationResult reports the two-colliding-apps experiment.
type MigrationResult struct {
	JCTWithout  float64 // mean JCT, migration disabled
	JCTWith     float64 // mean JCT, migration enabled
	Migrations  int     // VM moves performed by the cloud manager
	FinalSpread int     // servers hosting app VMs at the end (with migration)
}

// Migration colocates two high-priority MapReduce applications on one
// server of a two-server cloud. Their mutual disk contention raises the
// deviation signal, but there is no low-priority VM to throttle — the
// node manager escalates and the cloud manager migrates VMs of one app
// to the idle server (§III-D2's complementary solution).
func Migration(seed int64) MigrationResult {
	run := func(enable bool) (float64, int, int) {
		eng := sim.NewEngine(100*time.Millisecond, seed)
		clus := cluster.New()
		cm := cloud.NewManager(clus, eng.RNG())
		cm.ProvisionServers(2)

		var poolA, poolB exec.Pool
		var namesA, namesB []string
		for i := 0; i < 4; i++ {
			a, err := cm.Boot(cloud.VMSpec{Name: fmt.Sprintf("a-%d", i), ServerID: "server-0",
				Priority: cluster.HighPriority, AppID: "app-a"})
			if err != nil {
				panic(err)
			}
			poolA = append(poolA, exec.NewExecutor(a, 2))
			namesA = append(namesA, a.ID())
			bvm, err := cm.Boot(cloud.VMSpec{Name: fmt.Sprintf("b-%d", i), ServerID: "server-0",
				Priority: cluster.HighPriority, AppID: "app-b"})
			if err != nil {
				panic(err)
			}
			poolB = append(poolB, exec.NewExecutor(bvm, 2))
			namesB = append(namesB, bvm.ID())
		}
		fsA := dfs.New(dfs.DefaultConfig(), namesA, sim.NewSeededRand(seed+1))
		fsB := dfs.New(dfs.DefaultConfig(), namesB, sim.NewSeededRand(seed+2))
		fsA.Create("input", 8*(64<<20))
		fsB.Create("input", 8*(64<<20))
		jtA := mapreduce.NewJobTracker(poolA, fsA, nil)
		jtB := mapreduce.NewJobTracker(poolB, fsB, nil)
		eng.RegisterPriority(jtA, -1)
		eng.RegisterPriority(jtB, -1)
		eng.RegisterPriority(clus, 0)
		cfg := core.DefaultConfig()
		cfg.EnableMigration = enable
		sys := core.Attach(eng, clus, cm, cfg)

		// Both apps run shuffle-heavy terasorts: reduce-side fetches are
		// many small segments (random I/O), so the colliding apps disturb
		// each other's iowait deviation — the signal that makes the node
		// manager escalate when it finds no low-priority VM to throttle.
		jobCfg := mapreduce.Terasort("input", 4)
		jobCfg.ReduceShape.OpBytes = 32 << 10

		var jcts []float64
		jobA, _ := jtA.Submit(jobCfg, 0)
		jobB, _ := jtB.Submit(jobCfg, 0)
		for eng.Clock().Seconds() < 180 {
			eng.Step()
			now := eng.Clock().Seconds()
			if jobA.Done() {
				jcts = append(jcts, jobA.JCT())
				jobA, _ = jtA.Submit(jobCfg, now)
			}
			if jobB.Done() {
				jcts = append(jcts, jobB.JCT())
				jobB, _ = jtB.Submit(jobCfg, now)
			}
		}
		moves := 0
		sys.EachManager(func(nm *core.NodeManager) {
			moves += len(nm.Migrations())
		})
		spread := map[string]bool{}
		for _, id := range append(append([]string(nil), namesA...), namesB...) {
			spread[clus.FindVM(id).Server().ID()] = true
		}
		var sum float64
		for _, v := range jcts {
			sum += v
		}
		return sum / float64(len(jcts)), moves, len(spread)
	}
	// The two arms are independent engines; run them concurrently.
	type arm struct {
		jct    float64
		moves  int
		spread int
	}
	arms := make([]arm, 2)
	forEachRun(len(arms), func(i int) {
		a := &arms[i]
		a.jct, a.moves, a.spread = run(i == 1)
	})
	return MigrationResult{
		JCTWithout:  arms[0].jct,
		JCTWith:     arms[1].jct,
		Migrations:  arms[1].moves,
		FinalSpread: arms[1].spread,
	}
}

// Table renders the migration experiment.
func (r MigrationResult) Table() *trace.Table {
	t := trace.New("Extension (§III-D2): two colliding high-priority apps, migration escalation",
		"migration", "mean JCT (s)", "migrations", "servers used")
	t.Addf("disabled", r.JCTWithout, 0, 1)
	t.Addf("enabled", r.JCTWith, r.Migrations, r.FinalSpread)
	return t
}
