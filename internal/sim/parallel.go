package sim

import "runtime"

// Workers resolves a worker-count setting: n > 0 is taken literally, any
// other value selects GOMAXPROCS. Callers that want a hard sequential mode
// pass 1 explicitly.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}
