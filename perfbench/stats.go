package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a tail figure resting on fewer samples is noise.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted and whether at
// least minBeyond samples lie beyond it. The median needs no such support
// and is always reported when there is at least one sample.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	beyond := n - 1 - idx
	return sorted[idx], q <= 0.5 || beyond >= minBeyond
}

// tailLadder lists the tail percentiles tried from the highest down.
var tailLadder = []float64{0.99, 0.95, 0.90}

// tail returns the highest percentile of tailLadder that the sample count
// supports, with the percentile it used. With too few samples for any of
// them it falls back to the maximum and reports q = 1.
func tail(sorted []float64) (v, q float64) {
	for _, q := range tailLadder {
		if v, ok := percentile(sorted, q); ok {
			return v, q
		}
	}
	if len(sorted) == 0 {
		return 0, 1
	}
	return sorted[len(sorted)-1], 1
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	v, _ := percentile(sortedCopy(xs), 0.5)
	return v
}

// record is one unit of offered work: a bus record (open loop) or a
// submitted payload (closed loop). due is when it was due to be offered —
// for the open loop its schedule slot, not the moment the generator got
// round to it, so a stalled generator's records come out late.
type record struct {
	due    time.Time
	sealed time.Time // zero while not sealed on a quorum
}

// accounting summarizes the records due inside the measured window.
type accounting struct {
	attempted int       // records due in the window
	sealed    int       // of those, sealed on a quorum
	failed    int       // never sealed
	late      int       // not sealed within the budget, never-sealed ones included
	latencies []float64 // due-to-sealed in ms, sealed records only
}

// account reduces recs to the window [from, to) against budget. Records
// never sealed count as failed and as late: a missing record misses every
// latency limit.
func account(recs []record, from, to time.Time, budget time.Duration) accounting {
	var a accounting
	for _, r := range recs {
		if r.due.IsZero() || r.due.Before(from) || !r.due.Before(to) {
			continue
		}
		a.attempted++
		if r.sealed.IsZero() {
			a.failed++
			a.late++
			continue
		}
		a.sealed++
		lat := r.sealed.Sub(r.due)
		if lat > budget {
			a.late++
		}
		a.latencies = append(a.latencies, ms(lat))
	}
	return a
}

func (a accounting) lateFrac() float64 { return frac(a.late, a.attempted) }

func (a accounting) failFrac() float64 { return frac(a.failed, a.attempted) }

func frac(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perRec divides a total by a record count, 0 when nothing completed.
func perRec(total float64, recs int) float64 {
	if recs == 0 {
		return 0
	}
	return total / float64(recs)
}

// longestGap returns the longest interval between consecutive event times
// that overlaps [from, to), counting the gap that spans from itself. A gap
// is cut off at to, so an outage that begins in the next interval is not
// also charged to this one. times must be sorted.
func longestGap(times []time.Time, from, to time.Time) time.Duration {
	var longest time.Duration
	prev := time.Time{}
	for _, t := range times {
		if !prev.IsZero() && t.After(from) && prev.Before(to) {
			if g := minTime(t, to).Sub(prev); g > longest {
				longest = g
			}
		}
		prev = t
	}
	// Nothing sealed after prev: the gap runs at least to the interval end.
	if !prev.IsZero() && prev.Before(to) {
		if g := to.Sub(prev); g > longest {
			longest = g
		}
	}
	return longest
}
