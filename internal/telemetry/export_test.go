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
