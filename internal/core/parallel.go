package core

import "runtime"

// ParallelismFlagHelp is the shared CLI help suffix for -workers/-shards
// style flags: both resolve a zero through ResolveParallelism, so the
// documentation (and the behavior) cannot drift apart per command.
const ParallelismFlagHelp = "(0 = all CPUs, runtime.GOMAXPROCS)"

// ResolveParallelism resolves a worker or shard count: n when positive,
// otherwise runtime.GOMAXPROCS(0). It is the single resolution rule shared by
// Config.Workers (through Partition) and the CLIs' -workers/-shards flags,
// so `-workers 0` and `-shards 0` always agree on what "all CPUs" means.
func ResolveParallelism(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}
