package telemetry

// Exported only to this package's tests: nothing else calls these, so
// they are declared here and not in the production tree.

// Tracks returns the number of tracks (pipeline + workers).
func (t *Tracer) Tracks() int {
	if t == nil {
		return 0
	}
	return len(t.tracks)
}

// TrackName returns the display name of a track.
func (t *Tracer) TrackName(track int) string {
	if t == nil || track < 0 || track >= len(t.tracks) {
		return ""
	}
	return t.tracks[track].name
}

// Len returns the number of spans currently recorded across all tracks.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	var n int64
	for _, tr := range t.tracks {
		n += tr.published.Load()
	}
	return int(n)
}

// Reset discards all recorded spans (the epoch is preserved, so offsets
// from before and after a Reset remain comparable).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	for _, tr := range t.tracks {
		tr.published.Store(0)
		tr.cur.Store(0)
	}
}
