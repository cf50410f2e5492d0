package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanLog records the traced run: spans around coarse calls into a
// layer and counters with summed durations around per-event calls. Both
// are held in memory and written once, when the run ends.
type spanLog struct {
	t0       time.Time
	spans    []span
	counters map[string]*counter
	order    []string
}

// span is one coarse call; the benchmark's spans do not nest.
type span struct {
	Layer string  `json:"layer"`
	Name  string  `json:"name"`
	Start float64 `json:"start_us"`
	End   float64 `json:"end_us"`
}

// counter sums a per-event call's count and time. It is owned by one
// goroutine at a time.
type counter struct {
	Layer string        `json:"layer"`
	Name  string        `json:"name"`
	Calls int64         `json:"calls"`
	Total time.Duration `json:"total_ns"`
}

func newSpanLog() *spanLog {
	return &spanLog{t0: time.Now(), counters: map[string]*counter{}}
}

func (l *spanLog) since() float64 { return float64(time.Since(l.t0)) / 1e3 }

// timeSpan runs fn inside a span.
func (l *spanLog) timeSpan(layer, name string, fn func() error) error {
	s := span{Layer: layer, Name: name, Start: l.since()}
	err := fn()
	s.End = l.since()
	l.spans = append(l.spans, s)
	return err
}

// counter returns the named counter, creating it.
func (l *spanLog) counter(layer, name string) *counter {
	key := layer + "." + name
	c, ok := l.counters[key]
	if !ok {
		c = &counter{Layer: layer, Name: name}
		l.counters[key] = c
		l.order = append(l.order, key)
	}
	return c
}

// total sums the durations of the spans with the given layer and name.
func (l *spanLog) total(layer, name string) (time.Duration, int) {
	var us float64
	n := 0
	for _, s := range l.spans {
		if s.Layer == layer && s.Name == name {
			us += s.End - s.Start
			n++
		}
	}
	return time.Duration(us * 1e3), n
}

// write stores the spans and counters as JSON lines under dir.
func (l *spanLog) write(dir, workload string, seed uint64) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("span log: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error wins
			return "", fmt.Errorf("span log: %w", err)
		}
	}
	for _, k := range l.order {
		if err := enc.Encode(l.counters[k]); err != nil {
			_ = f.Close() // the encode error wins
			return "", fmt.Errorf("span log: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error wins
		return "", fmt.Errorf("span log: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("span log: %w", err)
	}
	return path, nil
}

// share is one row of an attribution table: a layer's cost per
// operation of the layer, and how many such operations one unit of the
// workload's end-to-end work performs.
type share struct {
	layer, what string
	perOp       float64 // ns per layer operation
	count       float64 // layer operations per unit of work
}

// attribution prints layer time × per-operation count against the
// end-to-end time per unit of work, with the unexplained residual: the
// rows plus the residual equal total exactly.
func attribution(title, unit string, total float64, rows []share) {
	fmt.Printf("\nattribution: %s (end-to-end %.4g ns per %s)\n", title, total, unit)
	fmt.Printf("  %-9s %-34s %12s %12s %12s %7s\n", "layer", "operation", "ns/op", "ops/"+unit, "ns/"+unit, "share")
	explained := 0.0
	for _, r := range rows {
		v := r.perOp * r.count
		explained += v
		fmt.Printf("  %-9s %-34s %12.4g %12.6g %12.4g %6.1f%%\n", r.layer, r.what, r.perOp, r.count, v, 100*v/total)
	}
	residual := total - explained
	fmt.Printf("  %-9s %-34s %12s %12s %12.4g %6.1f%%\n", "-", "residual (unexplained)", "", "", residual, 100*residual/total)
	fmt.Printf("  %-9s %-34s %12s %12s %12.4g %6.1f%%\n", "=", "end-to-end", "", "", total, 100.0)
}

// clockCost is the median time a counter measures around an empty
// call: the bias one time.Now/time.Since pair adds to every per-event
// duration it sums.
func clockCost() time.Duration {
	const n = 20000
	xs := make([]float64, 5)
	for b := range xs {
		var sum time.Duration
		for i := 0; i < n; i++ {
			t := time.Now()
			sum += time.Since(t)
		}
		xs[b] = float64(sum) / n
	}
	return time.Duration(median(xs))
}

// perCall times n calls of fn in five blocks and returns the median
// block's ns per call.
func perCall(n int, fn func(i int)) float64 {
	xs := make([]float64, 5)
	for b := range xs {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		xs[b] = float64(time.Since(start)) / float64(n)
	}
	return median(xs)
}
