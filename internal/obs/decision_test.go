package obs

import (
	"strings"
	"testing"
)

func TestWriteDecisionTable(t *testing.T) {
	ds := []Decision{
		{TimeSec: 0.5, Cycle: 1, Phase: "simulate", Class: "sensitive",
			FeedforwardW: 90, BankJ: 12.5, TrimW: -1.5, OldWatts: 65, NewWatts: 88.5, Reason: "boundary"},
		{TimeSec: 1.25, Cycle: 1, Phase: "contour", Class: "opportunity",
			OldWatts: 88.5, NewWatts: 65, Reason: "retune"},
	}
	var sb strings.Builder
	WriteDecisionTable(&sb, ds, 3)
	out := sb.String()
	for _, want := range []string{"simulate", "contour", "sensitive", "opportunity",
		"boundary", "retune", "2 decisions", "3 older decisions dropped"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
