package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"
)

// span is one timed call into a layer of the program, recorded from the
// benchmark's side of the call.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root
	Run    string  `json:"run"`    // repetition or window the call belongs to
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"` // since the recorder was created
	End    float64 `json:"end_us"`
}

// recorder keeps spans in memory until the run writes them out. It is
// used from one goroutine at a time.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) us(t time.Time) float64 { return float64(t.Sub(r.epoch).Nanoseconds()) / 1e3 }

// add records a span that ran from start to end and returns its id.
func (r *recorder) add(parent int, run, name string, start, end time.Time) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: run, Name: name, Start: r.us(start), End: r.us(end)})
	return id
}

// open starts a span whose end is set by close; children recorded in
// between can name it as their parent.
func (r *recorder) open(parent int, run, name string) int {
	return r.add(parent, run, name, time.Now(), time.Time{})
}

func (r *recorder) close(id int) time.Duration {
	now := time.Now()
	r.spans[id].End = r.us(now)
	return time.Duration((r.spans[id].End - r.spans[id].Start) * 1e3)
}

// call times fn as a span and returns its wall time and the bytes it
// allocated on the Go heap.
func (r *recorder) call(parent int, run, name string, fn func()) (time.Duration, float64) {
	a0 := heapAllocs()
	t0 := time.Now()
	fn()
	t1 := time.Now()
	alloc := float64(heapAllocs() - a0)
	r.add(parent, run, name, t0, t1)
	return t1.Sub(t0), alloc
}

// write stores the spans as JSON under dir and returns the file path.
func (r *recorder) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	b, err := json.Marshal(r.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// heapAllocs is the cumulative number of bytes allocated on the heap.
func heapAllocs() uint64 { return readMetric("/gc/heap/allocs:bytes") }

// heapPeak samples the live Go heap, as the last garbage collection
// marked it, until stopped, and keeps the largest value seen.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapPeak) sample() {
	v := readMetric("/gc/heap/live:bytes")
	h.mu.Lock()
	if v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// end stops the sampler, waits for it to exit and returns the peak in MB.
func (h *heapPeak) end() float64 {
	close(h.stop)
	<-h.done
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}
