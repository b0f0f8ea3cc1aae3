package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// interquartileMean averages the middle half of xs: as robust to
// outliers as the median, but it keeps the resolution of the values'
// average where the values themselves are small counts.
func interquartileMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	sum := 0.0
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// peakRSSMiB returns the process's peak resident set size in MiB
// (VmHWM), falling back to the Go runtime's total mapped memory where
// /proc is unavailable.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil && len(fields) == 2 && fields[1] == "kB" {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// rssSlices records the peak resident set size of successive slices of
// a run — sweep passes, or seconds of serving. begin resets the
// kernel's high-water mark and end reads it, so the median over slices
// is the steady peak a slice reaches, not a one-off maximum that
// depends on when the garbage collector happened to run.
type rssSlices struct {
	resettable bool
	peaks      []float64
}

func (r *rssSlices) begin() {
	r.resettable = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

func (r *rssSlices) end() {
	if r.resettable {
		r.peaks = append(r.peaks, peakRSSMiB())
	}
}

// value is the median slice peak, or the whole run's peak where the
// high-water mark cannot be reset.
func (r *rssSlices) value() (float64, int) {
	if len(r.peaks) == 0 {
		return peakRSSMiB(), 1
	}
	return median(r.peaks), len(r.peaks)
}
