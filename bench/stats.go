package main

import (
	"bufio"
	"encoding/binary"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0..1) of v by linear interpolation
// between order statistics; v is not modified.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(max(len(v), 1))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rssPeakMB reads this process's high-water resident set (VmHWM).
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// digest is a word-wise FNV-1a: one multiply per 8 bytes, so hashing a
// kernel's whole output costs a few per cent of producing it.
type digest uint64

const (
	fnvOffset digest = 14695981039346656037
	fnvPrime  digest = 1099511628211
)

func (d digest) word(w uint64) digest { return (d ^ digest(w)) * fnvPrime }

func (d digest) floats(v []float64) digest {
	d = d.word(uint64(len(v)))
	for _, x := range v {
		d = d.word(math.Float64bits(x))
	}
	return d
}

func (d digest) int32s(v []int32) digest {
	d = d.word(uint64(len(v)))
	for _, x := range v {
		d = d.word(uint64(uint32(x)))
	}
	return d
}

func (d digest) bytes(b []byte) digest {
	d = d.word(uint64(len(b)))
	for ; len(b) >= 8; b = b[8:] {
		d = d.word(binary.LittleEndian.Uint64(b))
	}
	for _, c := range b {
		d = d.word(uint64(c))
	}
	return d
}
