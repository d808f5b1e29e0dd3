package dist

import "sync/atomic"

// Process-lifetime fabric counters. They accumulate across every Comm in
// the process — the view a /metrics scrape wants — and FabricTotals
// reads them. Ranks add to them concurrently, but each add comes right
// after a channel send or receive, a few per rank per round, so one
// atomic per counter is enough.
var fabricSends, fabricRecvs, fabricBytes, fabricAborts, fabricStalls, fabricRetries atomic.Int64

// FabricStats is a snapshot of the process-lifetime fabric counters.
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

// FabricTotals reads the counters into one snapshot.
func FabricTotals() FabricStats {
	return FabricStats{
		Sends:   fabricSends.Load(),
		Recvs:   fabricRecvs.Load(),
		Bytes:   fabricBytes.Load(),
		Aborts:  fabricAborts.Load(),
		Stalls:  fabricStalls.Load(),
		Retries: fabricRetries.Load(),
	}
}

// NoteRetry records one transient-fault retry. The fabric cannot see
// retries itself — the harness owns the retry loop — so the caller
// reports them here.
func NoteRetry() { fabricRetries.Add(1) }
