package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// The workload generators. Each derives every input of its workload —
// job arrivals, sizes, antagonist placement and burst schedules — from
// the seed alone, in this process, before any timing starts; the
// simulator receives only the generated inputs.

// streamJob is one job of the tenant stream.
type streamJob struct {
	Spark     bool
	Bench     int // 0..2: terasort/wordcount/inverted-index or logreg/pagerank/svm
	Tasks     int
	ArriveSec float64
}

// antagonist is one benchmark VM: a fio or STREAM burst schedule pinned
// to a server.
type antagonist struct {
	Fio    bool // fio random reads; otherwise STREAM
	Server int
	Start  time.Duration
	On     time.Duration
	Off    time.Duration
}

// streamInputs is the tenant-stream workload.
type streamInputs struct {
	Seed        int64
	Servers     int
	Workers     int
	Jobs        []streamJob
	Antagonists []antagonist
}

// Tenant-stream shape: the paper's 15-server, 10-workers-per-server
// testbed fed by an open-loop arrival stream (Poisson, mean gap
// streamGapSec of simulated time) with Fig 11's job-size mix.
const (
	streamServers = 15
	streamWorkers = 10
	streamJobs    = 400
	streamGapSec  = 5
	streamFio     = 6
	streamSTREAM  = 6
)

// genStream draws an n-job stream. The job mix is stratified — exactly a
// fifth of the jobs are large (10-50 tasks), half are Spark, the three
// benchmarks of each framework and the task counts are spread evenly —
// and the arrivals are a Poisson stream conditioned on n arrivals in a
// window of n mean gaps. The seed then decides which job arrives when and
// where the antagonists sit, while the stream's total work and span stay
// fixed, so run times compare across seeds.
func genStream(seed int64, n int) streamInputs {
	rng := rand.New(rand.NewSource(seed))
	in := streamInputs{Seed: seed, Servers: streamServers, Workers: streamWorkers}
	large := n / 5
	for i := 0; i < n; i++ {
		j := streamJob{Spark: i%2 == 0, Bench: (i / 2) % 3}
		if i < large {
			j.Tasks = 10 + i*41/large
		} else {
			j.Tasks = 2 + (i-large)*8/(n-large)
		}
		in.Jobs = append(in.Jobs, j)
	}
	rng.Shuffle(len(in.Jobs), func(a, b int) { in.Jobs[a], in.Jobs[b] = in.Jobs[b], in.Jobs[a] })
	arrivals := make([]float64, n)
	for i := range arrivals {
		arrivals[i] = rng.Float64() * float64(n) * streamGapSec
	}
	sort.Float64s(arrivals)
	for i := range in.Jobs {
		in.Jobs[i].ArriveSec = arrivals[i]
	}
	burst := func(fio bool, server int) antagonist {
		return antagonist{
			Fio:    fio,
			Server: server,
			Start:  time.Duration(rng.Intn(60)) * time.Second,
			On:     time.Duration(60+rng.Intn(60)) * time.Second,
			Off:    time.Duration(15+rng.Intn(20)) * time.Second,
		}
	}
	for i := 0; i < streamFio; i++ {
		in.Antagonists = append(in.Antagonists, burst(true, rng.Intn(in.Servers)))
	}
	// STREAM VMs share a server and a schedule in pairs: one alone does
	// not saturate a host's memory bandwidth.
	for i := 0; i < streamSTREAM; i += 2 {
		a := burst(false, rng.Intn(in.Servers))
		in.Antagonists = append(in.Antagonists, a, a)
	}
	return in
}

// planetJob is one terasort on the hot region.
type planetJob struct {
	InputBlocks int // 64 MB DFS blocks
	Reduces     int
}

// planetInputs is the planet workload.
type planetInputs struct {
	Seed    int64
	Servers int
	Hot     int
	VMNames []string // tenant VMs booted across the fleet, in boot order
	Jobs    []planetJob
}

// Planet shape: examples/planet_scale shrunk five-fold (2k servers, 200k
// VMs) so its peak heap stays a few hundred MB; the Boot phase and the
// fleet-wide first tick keep their shape.
const (
	planetServers = 2000
	planetVMs     = 200000
	planetHot     = 16
	planetJobs    = 8
)

// genPlanet draws the planet's jobs; the fleet itself is fixed.
func genPlanet(seed int64, servers, vms, jobs int) planetInputs {
	rng := rand.New(rand.NewSource(seed))
	in := planetInputs{Seed: seed, Servers: servers, Hot: planetHot}
	// The hot region's Hadoop workers are VMs too; tenants fill the rest.
	for i := planetHot * planetWorkers; i < vms; i++ {
		in.VMNames = append(in.VMNames, fmt.Sprintf("tenant-%07d", i))
	}
	for i := 0; i < jobs; i++ {
		in.Jobs = append(in.Jobs, planetJob{InputBlocks: 48 + rng.Intn(33), Reduces: 8 + rng.Intn(9)})
	}
	return in
}

// planetWorkers is the Hadoop worker count per hot server.
const planetWorkers = 8

// suiteRounds is how many figure seeds one paper-suite iteration runs.
// Fig 11 carries most of the suite's work, and the size of its job mix
// changes with its seed by several percent; summing the suite over
// several seeds keeps a run's work close to the same across run seeds.
const suiteRounds = 8

// genSuite derives the paper-suite's figure seeds from the seed.
func genSuite(seed int64) []int64 {
	r := rand.New(rand.NewSource(seed))
	seeds := make([]int64, suiteRounds)
	for i := range seeds {
		seeds[i] = r.Int63()
	}
	return seeds
}
