package dist

import "repro/internal/obs"

// fabricShards bounds the padded shard count for the package-level
// fabric counters. Rank indices wrap, so any fabric size works; 32
// covers every rank count the experiments use without sharing lines.
const fabricShards = 32

// Package-level fabric counters, sharded by rank so concurrent ranks
// never contend on a cache line. They accumulate across every Comm in
// the process — the process-lifetime view a /metrics scrape wants —
// and are folded only by FabricTotals.
var (
	fabricSends   = obs.NewShardedCounter(fabricShards)
	fabricRecvs   = obs.NewShardedCounter(fabricShards)
	fabricBytes   = obs.NewShardedCounter(fabricShards)
	fabricAborts  = obs.NewShardedCounter(fabricShards)
	fabricStalls  = obs.NewShardedCounter(fabricShards)
	fabricRetries = obs.NewShardedCounter(fabricShards)
)

// FabricStats is a folded snapshot of the process-lifetime fabric
// counters.
type FabricStats struct {
	// Sends and Recvs count completed message deliveries (faults and
	// aborted operations excluded).
	Sends int64
	Recvs int64
	// Bytes is the payload volume sent, at 8 bytes per float64 element.
	Bytes int64
	// Aborts counts fabric cancellations (first abort per Comm).
	Aborts int64
	// Stalls counts sends that failed on a full pair buffer after
	// Options.SendTimeout.
	Stalls int64
	// Retries counts transient-fault retries noted by callers (the
	// harness retry loop) via NoteRetry.
	Retries int64
}

// FabricTotals folds the per-rank shards into one snapshot.
func FabricTotals() FabricStats {
	return FabricStats{
		Sends:   fabricSends.Value(),
		Recvs:   fabricRecvs.Value(),
		Bytes:   fabricBytes.Value(),
		Aborts:  fabricAborts.Value(),
		Stalls:  fabricStalls.Value(),
		Retries: fabricRetries.Value(),
	}
}

// NoteRetry records one transient-fault retry. The fabric cannot see
// retries itself — the harness owns the retry loop — so the caller
// reports them here; rank attributes the retry's shard.
func NoteRetry(rank int) { fabricRetries.Inc(rank) }
