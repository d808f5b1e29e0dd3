package dist

import (
	"errors"
	"testing"
)

// TestFabricTotals checks that fabric traffic lands in the
// process-lifetime counters. The counters are cumulative across tests,
// so assertions are on deltas.
func TestFabricTotals(t *testing.T) {
	before := FabricTotals()
	c, err := NewComm(4)
	if err != nil {
		t.Fatal(err)
	}
	const elems = 16
	err = c.Run(func(ep *Endpoint) error {
		// Ring: every rank sends elems float64s to the next rank.
		next := (ep.Rank() + 1) % ep.Size()
		prev := (ep.Rank() + ep.Size() - 1) % ep.Size()
		if err := ep.Send(next, 7, make([]float64, elems)); err != nil {
			return err
		}
		_, err := ep.Recv(prev, 7)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	after := FabricTotals()
	if got := after.Sends - before.Sends; got != 4 {
		t.Errorf("sends delta = %d, want 4", got)
	}
	if got := after.Recvs - before.Recvs; got != 4 {
		t.Errorf("recvs delta = %d, want 4", got)
	}
	if got := after.Bytes - before.Bytes; got != 4*elems*8 {
		t.Errorf("bytes delta = %d, want %d", got, 4*elems*8)
	}
	if after.Aborts != before.Aborts {
		t.Errorf("aborts delta = %d, want 0", after.Aborts-before.Aborts)
	}
}

func TestFabricAbortAndRetryCounters(t *testing.T) {
	before := FabricTotals()
	c, err := NewComm(2)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	_ = c.Run(func(ep *Endpoint) error {
		if ep.Rank() == 1 {
			return boom
		}
		_, err := ep.Recv(1, 0) // unblocked by the abort
		return err
	})
	NoteRetry()
	after := FabricTotals()
	if got := after.Aborts - before.Aborts; got != 1 {
		t.Errorf("aborts delta = %d, want 1", got)
	}
	if got := after.Retries - before.Retries; got != 1 {
		t.Errorf("retries delta = %d, want 1", got)
	}
}
