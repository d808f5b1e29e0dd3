// Package cinema writes orbit image databases in the spirit of the Cinema
// specification from the in situ community: the paper's ray-tracing and
// volume-rendering workloads each produce "an image database consisting of
// 50 images per visualization cycle generated from different camera
// positions around the data set" — this package persists that product as
// numbered PNG files plus a JSON index mapping each image to its camera
// parameters, so a post hoc viewer can scrub around the object without
// re-rendering.
//
// PNG encoding is far slower than the render that produced the frame, so
// the database can pipeline it: StartAsync moves encode+write onto a
// bounded worker queue and the render loop only pays the channel send.
// Finalize drains the queue and sorts the manifest by (cycle, index), so
// the persisted index.json is identical whether encoding was synchronous
// or pipelined.
//
// A Database tolerates concurrent producers: Add, AddAt, NewCycle, and
// Len may be called from multiple goroutines (the serving daemon shares
// one database across in-flight requests). Finalize always persists the
// manifest of every successfully stored frame, even when some frames
// failed to encode — the failures are collected (all of them, joined)
// and returned alongside the written index rather than orphaning the
// images that did land on disk.
package cinema

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"repro/internal/render"
)

// ErrFinalized is returned by Add/AddAt after Finalize: the encode queue
// is gone and the manifest is written, so late frames are a caller bug —
// they must fail loudly instead of silently re-entering synchronous mode.
var ErrFinalized = errors.New("cinema: database already finalized")

// Entry describes one stored image.
type Entry struct {
	File       string  `json:"file"`
	Index      int     `json:"index"`
	AzimuthRad float64 `json:"azimuth_rad"`
	Cycle      int     `json:"cycle"`
}

// Index is the database manifest.
type Index struct {
	Name      string  `json:"name"`
	Algorithm string  `json:"algorithm"`
	Width     int     `json:"width"`
	Height    int     `json:"height"`
	Entries   []Entry `json:"entries"`
}

// Database accumulates images into a directory.
type Database struct {
	dir string

	mu        sync.Mutex // guards everything below
	cycle     int
	index     Index
	errs      []error        // every failed store, in completion order
	jobs      chan encodeJob // nil until StartAsync
	finalized bool
	producers sync.WaitGroup // Adds holding a reference to jobs

	wg sync.WaitGroup // encode workers
}

type encodeJob struct {
	name       string
	index      int
	azimuthRad float64
	cycle      int
	im         *render.Image
}

// New creates (or reuses) the database directory.
func New(dir, name, algorithm string) (*Database, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Database{
		dir:   dir,
		index: Index{Name: name, Algorithm: algorithm},
	}, nil
}

// StartAsync switches the database to pipelined encoding: Add enqueues
// onto a bounded channel (depth frames of backpressure) and workers
// encode and write concurrently with the render loop. Images handed to
// Add after this call are owned by the database until written —
// callers must not reuse them. workers <= 0 picks a small default from
// the machine size; depth <= 0 defaults to twice the workers. A second
// call before Finalize is a no-op.
func (d *Database) StartAsync(workers, depth int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.jobs != nil || d.finalized {
		return
	}
	if workers <= 0 {
		workers = runtime.NumCPU() / 2
		if workers < 1 {
			workers = 1
		}
		if workers > 4 {
			workers = 4
		}
	}
	if depth <= 0 {
		depth = 2 * workers
	}
	d.jobs = make(chan encodeJob, depth)
	// Workers must range over a captured copy: Finalize nils d.jobs before
	// closing the channel, and a worker scheduled late would otherwise read
	// the nil field and block forever.
	jobs := d.jobs
	for w := 0; w < workers; w++ {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			for j := range jobs {
				d.store(j)
			}
		}()
	}
}

// Add stores one image under the database's current cycle — immediately
// when synchronous, or by handing the frame to the encode queue when
// StartAsync is active (in which case the returned error is nil and
// failures surface at Finalize). Adding to a finalized database returns
// ErrFinalized. Safe for concurrent use.
func (d *Database) Add(index int, azimuthRad float64, im *render.Image) error {
	return d.AddAt(-1, index, azimuthRad, im)
}

// AddAt is Add with an explicit visualization-cycle tag (cycle >= 0);
// cycle < 0 uses the database's current cycle. Concurrent producers that
// each own a cycle (NewCycle) use it so their frames tag consistently no
// matter how their Adds interleave with other requests' NewCycle calls.
func (d *Database) AddAt(cycle, index int, azimuthRad float64, im *render.Image) error {
	d.mu.Lock()
	if d.finalized {
		d.mu.Unlock()
		return ErrFinalized
	}
	if cycle < 0 {
		cycle = d.cycle
	}
	jobs := d.jobs
	if jobs != nil {
		// Register as an in-flight producer before dropping the lock:
		// Finalize waits for registered producers before closing the
		// queue, so this send can never hit a closed channel. The send
		// itself happens outside the lock — a full queue must block on
		// the encode workers, not on the mutex those workers need to
		// append manifest entries.
		d.producers.Add(1)
		d.mu.Unlock()
		defer d.producers.Done()
		jobs <- encodeJob{
			name:       FrameName(cycle, index),
			index:      index,
			azimuthRad: azimuthRad,
			cycle:      cycle,
			im:         im,
		}
		return nil
	}
	d.mu.Unlock()
	return d.store(encodeJob{
		name:       FrameName(cycle, index),
		index:      index,
		azimuthRad: azimuthRad,
		cycle:      cycle,
		im:         im,
	})
}

// FrameName is the canonical frame file name for (cycle, index); callers
// that list frames without reading the manifest (the serving daemon's
// /cinema response) use it to predict where a frame will land.
func FrameName(cycle, index int) string {
	return fmt.Sprintf("c%03d_i%03d.png", cycle, index)
}

// store encodes and writes one frame, appending its manifest entry on
// success and recording the failure on error.
func (d *Database) store(j encodeJob) error {
	err := d.writePNG(j)
	d.mu.Lock()
	if err != nil {
		d.errs = append(d.errs, fmt.Errorf("cinema: %s: %w", j.name, err))
	} else {
		if d.index.Width == 0 {
			d.index.Width, d.index.Height = j.im.W, j.im.H
		}
		d.index.Entries = append(d.index.Entries, Entry{
			File: j.name, Index: j.index, AzimuthRad: j.azimuthRad, Cycle: j.cycle,
		})
	}
	d.mu.Unlock()
	return err
}

func (d *Database) writePNG(j encodeJob) error {
	f, err := os.Create(filepath.Join(d.dir, j.name))
	if err != nil {
		return err
	}
	if err := j.im.WritePNG(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// NewCycle atomically claims a fresh cycle tag and returns it: the
// current cycle is advanced past the returned value, so each concurrent
// producer gets a private cycle to AddAt into.
func (d *Database) NewCycle() int {
	d.mu.Lock()
	c := d.cycle
	d.cycle++
	d.mu.Unlock()
	return c
}

// Len returns the number of images stored so far (queued frames count
// once written; call after Finalize for the settled total).
func (d *Database) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.index.Entries)
}

// Finalize drains the encode queue (when async), sorts the manifest into
// its deterministic (cycle, index) order, and always writes index.json —
// every frame that did store stays reachable even when others failed.
// The returned error joins every failed store plus any manifest write
// error; nil means every frame and the index landed. Finalize is
// idempotent; Add/AddAt afterwards return ErrFinalized.
func (d *Database) Finalize() error {
	d.mu.Lock()
	if d.finalized {
		errs := d.errs
		d.mu.Unlock()
		return errors.Join(errs...)
	}
	d.finalized = true
	jobs := d.jobs
	d.jobs = nil
	d.mu.Unlock()
	if jobs != nil {
		// Producers registered before finalized was set may still be
		// blocked sending; wait them out, then close so the workers
		// drain and exit.
		d.producers.Wait()
		close(jobs)
		d.wg.Wait()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	sort.SliceStable(d.index.Entries, func(i, j int) bool {
		a, b := d.index.Entries[i], d.index.Entries[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		return a.Index < b.Index
	})
	data, err := json.MarshalIndent(d.index, "", "  ")
	if err != nil {
		d.errs = append(d.errs, err)
		return errors.Join(d.errs...)
	}
	if err := os.WriteFile(filepath.Join(d.dir, "index.json"), data, 0o644); err != nil {
		d.errs = append(d.errs, err)
	}
	return errors.Join(d.errs...)
}
