package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number: the median of its samples with the
// first and third quartiles and the sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// summarize reduces samples to their median and quartiles, with the
// quartile rule of Python's statistics.quantiles(xs, n=4).
func summarize(unit string, xs []float64) metric {
	if len(xs) == 0 {
		return metric{Unit: unit}
	}
	q := quartiles(xs)
	return metric{Value: q[1], Unit: unit, Q1: q[0], Q3: q[2], N: len(xs)}
}

// single is a metric measured once.
func single(unit string, v float64) metric {
	return metric{Value: v, Unit: unit, Q1: v, Q3: v, N: 1}
}

// quartiles returns Q1, median and Q3 by the "exclusive" method
// (Python's statistics.quantiles default); one sample is all three.
func quartiles(xs []float64) [3]float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	k := int(float64(len(s))*p/100+0.999999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rssSampler reads the process's resident set at a fixed interval in a
// goroutine of its own until end is called.
type rssSampler struct {
	stop chan struct{}
	done chan []float64
}

func sampleRSS(every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		var xs []float64
		for {
			xs = append(xs, rssMB())
			select {
			case <-s.stop:
				s.done <- xs
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// end stops the sampler and returns its samples in MiB.
func (s *rssSampler) end() []float64 {
	close(s.stop)
	return <-s.done
}

// rssMB reads the current resident set in MiB, or 0 where /proc is
// unavailable.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB, or 0
// where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
