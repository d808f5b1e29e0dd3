package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

// buildRegistry assembles one of every series shape with labels chosen
// to exercise ordering and escaping.
func buildRegistry() *Registry {
	r := NewRegistry()
	r.Counter("zz_last_total", "sorts last").Add(7)
	r.Counter("aa_first_total", "sorts first", L("rank", "1")).Add(1)
	r.Counter("aa_first_total", "sorts first", L("rank", "0")).Add(2)
	r.Gauge("cap_watts", "current cap").Set(72.5)
	r.FloatCounter("energy_joules_total", "joules", L("stage", "contour")).Add(12.5)
	h := r.Histogram("latency_seconds", "latency", []float64{0.1, 1}, L("op", "render"))
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	counterFunc(r, "msgs_total").Add(9)
	r.GaugeFunc("live_gauge", "func-backed", func() float64 { return 3.25 })
	r.CounterFunc("live_total", "func-backed", func() float64 { return 11 })
	r.HistogramFunc("live_hist", "func-backed buckets", []float64{1, 2},
		func() ([]int64, float64) { return []int64{4, 2, 1}, 9.5 })
	r.Counter("esc_total", `help with \ and newline`+"\n", L("path", `a"b\c`+"\n")).Inc()
	return r
}

func scrape(t *testing.T, r *Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return buf.Bytes()
}

// TestExpositionParsesBack is the headline parse-back test: everything
// the encoder emits must satisfy the validator's ordering, escaping,
// type-line, and histogram invariants.
func TestExpositionParsesBack(t *testing.T) {
	out := scrape(t, buildRegistry())
	n, err := ValidatePrometheus(out)
	if err != nil {
		t.Fatalf("ValidatePrometheus: %v\n%s", err, out)
	}
	// 2 aa + cap + energy + esc + histogram(2+1 buckets+sum+count=5) +
	// live_gauge + live_hist(3+sum+count=5) + live_total + msgs + zz = 19
	if n != 19 {
		t.Fatalf("samples = %d, want 19\n%s", n, out)
	}
}

func TestExpositionDeterministic(t *testing.T) {
	r := buildRegistry()
	a, b := scrape(t, r), scrape(t, r)
	if !bytes.Equal(a, b) {
		t.Fatal("two scrapes of an idle registry differ")
	}
	text := string(a)
	// Families in sorted order.
	order := []string{"# TYPE aa_first_total", "# TYPE cap_watts", "# TYPE energy_joules_total",
		"# TYPE esc_total", "# TYPE latency_seconds", "# TYPE live_gauge", "# TYPE live_hist",
		"# TYPE live_total", "# TYPE msgs_total", "# TYPE zz_last_total"}
	last := -1
	for _, want := range order {
		i := strings.Index(text, want)
		if i < 0 {
			t.Fatalf("missing %q in\n%s", want, text)
		}
		if i < last {
			t.Fatalf("%q out of order", want)
		}
		last = i
	}
	// Series within a family sorted by label signature.
	if strings.Index(text, `aa_first_total{rank="0"} 2`) > strings.Index(text, `aa_first_total{rank="1"} 1`) {
		t.Fatal("series not sorted by label signature")
	}
	for _, want := range []string{
		`# HELP esc_total help with \\ and newline\n`,
		`esc_total{path="a\"b\\c\n"} 1`,
		`latency_seconds_bucket{op="render",le="0.1"} 1`,
		`latency_seconds_bucket{op="render",le="1"} 2`,
		`latency_seconds_bucket{op="render",le="+Inf"} 3`,
		`latency_seconds_sum{op="render"} 5.55`,
		`latency_seconds_count{op="render"} 3`,
		`live_hist_bucket{le="+Inf"} 7`,
		`live_hist_sum 9.5`,
		`cap_watts 72.5`,
		`msgs_total 9`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in\n%s", want, text)
		}
	}
}

// TestValidatorRejects proves the validator actually enforces what the
// parse-back test relies on.
func TestValidatorRejects(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"no type line", "foo 1\n", "no preceding TYPE"},
		{"family out of order", "# TYPE b counter\nb 1\n# TYPE a counter\na 1\n", "out of order"},
		{"family twice", "# TYPE a counter\na 1\n# TYPE a counter\n", "declared twice"},
		{"series out of order", "# TYPE a counter\na{x=\"2\"} 1\na{x=\"1\"} 1\n", "out of label order"},
		{"duplicate series", "# TYPE a counter\na{x=\"1\"} 1\na{x=\"1\"} 2\n", "duplicate series"},
		{"bad escape", "# TYPE a counter\na{x=\"\\q\"} 1\n", "bad escape"},
		{"non-cumulative", "# TYPE a histogram\na_bucket{le=\"1\"} 5\na_bucket{le=\"+Inf\"} 3\n", "not cumulative"},
		{"missing inf", "# TYPE a histogram\na_bucket{le=\"1\"} 1\na_count 1\n", "+Inf"},
		{"count mismatch", "# TYPE a histogram\na_bucket{le=\"+Inf\"} 3\na_sum 1\na_count 4\n", "!= +Inf bucket"},
		{"bad value", "# TYPE a counter\na nope\n", "bad value"},
		{"bad name", "# TYPE 9a counter\n", "invalid metric name"},
	}
	for _, tc := range cases {
		if _, err := ValidatePrometheus([]byte(tc.in)); err == nil {
			t.Errorf("%s: validator accepted bad input", tc.name)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestConcurrentScrape runs scrapes against live increments — the
// -race witness for the lock-free stores.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "ops")
	fc := r.FloatCounter("joules_total", "joules")
	g := r.Gauge("watts", "watts")
	h := r.Histogram("lat", "lat", []float64{0.001, 0.1, 1})
	fn := counterFunc(r, "func_total")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				fc.Add(0.25)
				g.Set(float64(i))
				h.Observe(float64(i%100) / 50)
				fn.Add(1)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		out := scrape(t, r)
		if _, err := ValidatePrometheus(out); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("scrape %d invalid under concurrency: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	out := scrape(t, r)
	if !bytes.Contains(out, []byte("ops_total")) {
		t.Fatal("final scrape missing series")
	}
}

// FuzzRegistryRoundTrip registers a counter, a gauge and a histogram
// under two fuzzed label values and records fuzzed samples (NaN, ±Inf
// and -0 among the seeds in testdata/fuzz/FuzzRegistryRoundTrip). The
// exposition must validate, and Values must hold exactly the non-bucket
// samples the exposition parses back to, bit for bit (NaN as NaN).
func FuzzRegistryRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b string, count int64, gauge, observed float64) {
		labels := []string{a, b}
		if a == b {
			labels = labels[:1] // one series: a second would be a duplicate
		}
		r := NewRegistry()
		for _, label := range labels {
			r.Counter("fuzz_total", "a counter", L("k", label)).Add(count)
			r.Gauge("fuzz_gauge", "a gauge", L("k", label)).Set(gauge)
			h := r.Histogram("fuzz_seconds", "a histogram", []float64{0, 1}, L("k", label))
			h.Observe(observed)
			h.Observe(gauge)
		}
		out := scrape(t, r)
		if _, err := ValidatePrometheus(out); err != nil {
			t.Fatalf("exposition invalid: %v\n%s", err, out)
		}
		values := r.Values()
		read := 0
		for _, line := range strings.Split(string(out), "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			name, sig, le, v, err := parseSample(line)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			if le != "" {
				continue
			}
			read++
			got, ok := values[name+sig]
			if !ok || (math.Float64bits(got) != math.Float64bits(v) && !(math.IsNaN(got) && math.IsNaN(v))) {
				t.Errorf("%s%s: exposition %v, Values %v (present %v)", name, sig, v, got, ok)
			}
		}
		if read != len(values) {
			t.Errorf("exposition has %d non-bucket samples, Values %d", read, len(values))
		}
	})
}
