// Large scale: a 6-server, 48-worker virtual cluster running a mix of
// MapReduce and Spark jobs (80% small, 20% large) with randomly placed
// fio and STREAM antagonists — comparing LATE, Dolly and PerfCloud on
// job degradation and resource-utilization efficiency, the setting of
// the paper's Figure 11 (scaled down so the example runs in seconds).
//
// Run with: go run ./examples/large_scale
//
// The baseline and the four scheme mixes are independent engines, so they
// run concurrently (one per core) and each cluster fans its per-server
// tick work out to a bounded pool; pass -parallel 1 to force the fully
// sequential mode — the tables are bit-for-bit identical either way.
package main

import (
	"flag"
	"fmt"
	"runtime"
	"time"

	"perfcloud/internal/cluster"
	"perfcloud/internal/experiments"
)

func main() {
	parallel := flag.Int("parallel", 0, "worker bound for tick and run concurrency (0 = GOMAXPROCS, 1 = sequential)")
	flag.Parse()
	cluster.SetDefaultTickWorkers(*parallel)
	experiments.SetMaxParallelRuns(*parallel)
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	cfg := experiments.LargeScaleConfig{
		Seed:             3,
		Servers:          6,
		WorkersPerServer: 8,
		NumMR:            15,
		NumSpark:         15,
		Fio:              3,
		Streams:          3,
		InterarrivalSec:  3,
		Limit:            2 * time.Hour,
	}
	fmt.Printf("== %d servers, %d workers, %d jobs, %d antagonists (%d-way parallel) ==\n",
		cfg.Servers, cfg.Servers*cfg.WorkersPerServer, cfg.NumMR+cfg.NumSpark, cfg.Fio+cfg.Streams, workers)
	res := experiments.Fig11With(cfg, []experiments.Scheme{
		experiments.SchemeLATE(),
		experiments.SchemeDolly(2),
		experiments.SchemeDolly(4),
		experiments.SchemePerfCloud(),
	})
	fmt.Println(res.Table().String())
	fmt.Println("PerfCloud throttles antagonists at their source: no cloned or")
	fmt.Println("speculative work, so its efficiency stays at ~100% while Dolly's")
	fmt.Println("falls with every extra clone.")
}
