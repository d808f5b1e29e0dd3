package render

import "sync"

// freeListKeep bounds a FreeList: enough for the uses that overlap in
// practice — the /render handlers of a viewer or two scrubbing an orbit,
// cinema's two async encoders — and little to hold idle: two BestSpeed
// compressors are 2.4 MB, two 128² framebuffers 1.3 MB.
const freeListKeep = 2

// FreeList is a mutex-guarded stack of at most two values kept for reuse,
// safe for concurrent use: the PNG writer's compressor state and the
// daemon's framebuffers. The zero value is an empty list. Get on an
// empty list returns the zero value; Put on a full list drops the value
// for the collector.
type FreeList[T any] struct {
	mu   sync.Mutex
	free []T
}

// Get pops the most recently put value, or returns the zero value.
func (l *FreeList[T]) Get() T {
	l.mu.Lock()
	defer l.mu.Unlock()
	var v T
	if n := len(l.free); n > 0 {
		v = l.free[n-1]
		l.free[n-1] = *new(T)
		l.free = l.free[:n-1]
	}
	return v
}

// Put keeps v for a later Get unless the list is full.
func (l *FreeList[T]) Put(v T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) < freeListKeep {
		l.free = append(l.free, v)
	}
}
