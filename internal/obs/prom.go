package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered family in Prometheus text
// exposition format 0.0.4. Output is deterministic: families sorted by
// name, series within a family sorted by canonical label signature,
// histogram buckets cumulative and ascending with the +Inf bucket,
// _sum, and _count last. A nil registry writes nothing.
//
// Values are read per series with atomic loads — a scrape concurrent
// with increments sees a consistent value per series, not a consistent
// cut across series (the same contract as par.Pool.Stats).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, 0, len(names))
	for _, name := range names {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			if f.kind == kindHistogram {
				writeHistogramSeries(bw, f, s)
				continue
			}
			bw.WriteString(f.name)
			bw.WriteString(s.sig)
			bw.WriteByte(' ')
			bw.WriteString(formatValue(seriesValue(s)))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// seriesValue reads the scalar value of a counter or gauge series.
func seriesValue(s *series) float64 {
	switch {
	case s.c != nil:
		return float64(s.c.Value())
	case s.fc != nil:
		return s.fc.Value()
	case s.g != nil:
		return s.g.Value()
	case s.fn != nil:
		return s.fn()
	}
	return 0
}

// writeHistogramSeries expands one histogram series into cumulative
// _bucket lines plus _sum and _count. _count is derived from the
// bucket snapshot, not read separately — under a concurrent Observe
// the two reads could tear, and "+Inf bucket == _count" is an
// invariant ValidatePrometheus enforces.
func writeHistogramSeries(bw *bufio.Writer, f *family, s *series) {
	var buckets []int64
	var sum float64
	switch {
	case s.h != nil:
		buckets = s.h.snapshot()
		sum = s.h.Sum()
	case s.hfn != nil:
		buckets, sum = s.hfn()
	}
	// Tolerate a short or nil bucket slice from a func-backed source.
	if len(buckets) < len(f.bounds)+1 {
		buckets = append(buckets, make([]int64, len(f.bounds)+1-len(buckets))...)
	}
	var cum int64
	for i, bound := range f.bounds {
		cum += buckets[i]
		writeBucketLine(bw, f.name, s, formatValue(bound), cum)
	}
	cum += buckets[len(f.bounds)]
	writeBucketLine(bw, f.name, s, "+Inf", cum)
	fmt.Fprintf(bw, "%s_sum%s %s\n", f.name, s.sig, formatValue(sum))
	fmt.Fprintf(bw, "%s_count%s %d\n", f.name, s.sig, cum)
}

// writeBucketLine emits one cumulative bucket sample, splicing the le
// label after the series' existing (sorted) label set.
func writeBucketLine(bw *bufio.Writer, name string, s *series, le string, cum int64) {
	bw.WriteString(name)
	bw.WriteString("_bucket{")
	if len(s.labels) > 0 {
		// sig is "{k=\"v\",...}"; reuse its interior.
		bw.WriteString(s.sig[1 : len(s.sig)-1])
		bw.WriteByte(',')
	}
	fmt.Fprintf(bw, "le=%q} %d\n", le, cum)
}

// formatValue renders a float the way Prometheus expects: shortest
// round-trip form ("+Inf"/"-Inf" for infinities, which FormatFloat
// already produces).
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// famState tracks per-family invariants while validating.
type famState struct {
	kind    string
	lastSig string
	sigs    map[string]bool
	lastCum int64  // histogram: previous cumulative bucket value
	infCum  int64  // histogram: the +Inf cumulative value
	sawInf  bool   // histogram: +Inf bucket seen for current series
	curHSig string // histogram: label sig (minus le) being expanded
	hOpen   bool   // histogram: a bucket series is in progress
}

// checkSigOrder enforces sorted, duplicate-free label signatures within
// a family.
func (f *famState) checkSigOrder(sig, name string, lineNo int) error {
	if f.sigs[sig] {
		return fmt.Errorf("line %d: duplicate series %s%s", lineNo, name, sig)
	}
	if len(f.sigs) > 0 && sig <= f.lastSig {
		return fmt.Errorf("line %d: series %s%s out of label order", lineNo, name, sig)
	}
	f.sigs[sig] = true
	f.lastSig = sig
	return nil
}

// endSeries checks that a finished histogram series saw its +Inf
// bucket.
func (f *famState) endSeries(famName string, lineNo int) error {
	if f.kind == kindHistogram && f.hOpen && !f.sawInf {
		return fmt.Errorf("line %d: histogram %s series %s missing +Inf bucket", lineNo, famName, f.curHSig)
	}
	return nil
}

// ValidatePrometheus parses data as Prometheus text exposition format
// 0.0.4 and returns the number of samples, or an error describing the
// first violation. Beyond syntax it enforces the invariants
// WritePrometheus guarantees, so a test failure names the broken
// property rather than just "parse error":
//
//   - every sample is preceded by a # TYPE line for its family
//   - families appear in sorted name order, each exactly once
//   - series within a family are in sorted label-signature order with
//     no duplicates
//   - histogram buckets are cumulative (monotone non-decreasing), end
//     at le="+Inf", and the +Inf bucket equals _count
//
// It is the exposition analogue of telemetry.ValidateChromeTrace.
func ValidatePrometheus(data []byte) (int, error) {
	samples := 0
	var lastFam, curName string
	var cur *famState
	fams := map[string]*famState{}

	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return samples, fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			name := fields[2]
			if !validName(name) {
				return samples, fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
			}
			if fields[1] == "HELP" {
				continue
			}
			if len(fields) != 4 {
				return samples, fmt.Errorf("line %d: TYPE line missing type", lineNo)
			}
			kind := fields[3]
			if kind != kindCounter && kind != kindGauge && kind != kindHistogram {
				return samples, fmt.Errorf("line %d: unknown type %q", lineNo, kind)
			}
			if fams[name] != nil {
				return samples, fmt.Errorf("line %d: family %s declared twice", lineNo, name)
			}
			if name <= lastFam {
				return samples, fmt.Errorf("line %d: family %s out of order (after %s)", lineNo, name, lastFam)
			}
			if cur != nil {
				if err := cur.endSeries(curName, lineNo); err != nil {
					return samples, err
				}
			}
			cur = &famState{kind: kind, sigs: map[string]bool{}}
			fams[name] = cur
			lastFam, curName = name, name
			continue
		}

		name, sig, le, value, err := parseSample(line)
		if err != nil {
			return samples, fmt.Errorf("line %d: %v", lineNo, err)
		}
		base, suffix := name, ""
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			if strings.TrimSuffix(name, sfx) == curName && strings.HasSuffix(name, sfx) {
				base, suffix = curName, sfx
				break
			}
		}
		if cur == nil || base != curName {
			return samples, fmt.Errorf("line %d: sample %s has no preceding TYPE line", lineNo, name)
		}
		if cur.kind == kindHistogram {
			if suffix == "" {
				return samples, fmt.Errorf("line %d: bare sample %s in histogram family", lineNo, name)
			}
			switch suffix {
			case "_bucket":
				if le == "" {
					return samples, fmt.Errorf("line %d: histogram bucket without le label", lineNo)
				}
				if !cur.hOpen || sig != cur.curHSig {
					if err := cur.endSeries(curName, lineNo); err != nil {
						return samples, err
					}
					if err := cur.checkSigOrder(sig, base, lineNo); err != nil {
						return samples, err
					}
					cur.curHSig, cur.lastCum, cur.sawInf, cur.hOpen = sig, 0, false, true
				}
				cum := int64(value)
				if cum < cur.lastCum {
					return samples, fmt.Errorf("line %d: histogram %s buckets not cumulative (%d < %d)", lineNo, base, cum, cur.lastCum)
				}
				cur.lastCum = cum
				if le == "+Inf" {
					cur.sawInf, cur.infCum = true, cum
				}
			case "_count":
				if !cur.hOpen || cur.curHSig != sig || !cur.sawInf {
					return samples, fmt.Errorf("line %d: %s_count without matching +Inf bucket", lineNo, base)
				}
				if int64(value) != cur.infCum {
					return samples, fmt.Errorf("line %d: %s_count %d != +Inf bucket %d", lineNo, base, int64(value), cur.infCum)
				}
				cur.hOpen = false
			}
			samples++
			continue
		}
		if suffix != "" {
			return samples, fmt.Errorf("line %d: histogram-style sample %s in %s family", lineNo, name, cur.kind)
		}
		if le != "" {
			return samples, fmt.Errorf("line %d: le label on non-histogram %s", lineNo, name)
		}
		if err := cur.checkSigOrder(sig, name, lineNo); err != nil {
			return samples, err
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return samples, err
	}
	if cur != nil {
		if err := cur.endSeries(curName, lineNo+1); err != nil {
			return samples, err
		}
	}
	return samples, nil
}

// parseSample splits one sample line into name, label signature with
// any le label removed (canonical "{k=\"v\"}" form or ""), the le
// value if present, and the sample value.
func parseSample(line string) (name, sig, le string, value float64, err error) {
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return "", "", "", 0, fmt.Errorf("malformed sample %q", line)
	}
	name = rest[:i]
	if !validName(name) {
		return "", "", "", 0, fmt.Errorf("invalid metric name %q", name)
	}
	rest = rest[i:]
	var kept []string
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			if rest == "" {
				return "", "", "", 0, fmt.Errorf("unterminated label set in %q", line)
			}
			if rest[0] == '}' {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, "=")
			if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
				return "", "", "", 0, fmt.Errorf("malformed label in %q", line)
			}
			key := rest[:eq]
			if !validName(key) {
				return "", "", "", 0, fmt.Errorf("invalid label name %q", key)
			}
			rest = rest[eq+2:]
			var val strings.Builder
			closed := false
			for j := 0; j < len(rest); j++ {
				c := rest[j]
				if c == '\\' {
					if j+1 >= len(rest) {
						return "", "", "", 0, fmt.Errorf("dangling escape in %q", line)
					}
					j++
					switch rest[j] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						return "", "", "", 0, fmt.Errorf("bad escape \\%c in %q", rest[j], line)
					}
					continue
				}
				if c == '"' {
					rest = rest[j+1:]
					closed = true
					break
				}
				val.WriteByte(c)
			}
			if !closed {
				return "", "", "", 0, fmt.Errorf("unterminated label value in %q", line)
			}
			if key == "le" {
				le = val.String()
			} else {
				kept = append(kept, key+`="`+escapeLabelValue(val.String())+`"`)
			}
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
			}
		}
		if len(kept) > 0 {
			sig = "{" + strings.Join(kept, ",") + "}"
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional timestamp field
		return "", "", "", 0, fmt.Errorf("malformed value in %q", line)
	}
	value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", "", "", 0, fmt.Errorf("bad value %q", fields[0])
	}
	return name, sig, le, value, nil
}
