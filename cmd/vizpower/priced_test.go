package main

import (
	"io"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/par"
	"repro/internal/serve"
	"repro/internal/study"
)

// wallSecLine is the one host-clock field of a /sweep body.
var wallSecLine = regexp.MustCompile(`(?m)^\s*"wall_sec": .*\n`)

// TestPricedOutputsMatchRecording pins the priced outputs the golden
// artifacts do not cover, at TestGoldenArtifacts' configuration
// (`-quick -sizes 16,32 -phase-size 32`, two workers): the arch table of
// each of the eight algorithms, the claim checks, the allocate rows, and
// the /sweep body of each algorithm at the phase size with its wall_sec
// line dropped. testdata/priced.txt holds them.
func TestPricedOutputsMatchRecording(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	opt, err := lookup(verbs, "allocate").parse([]string{"-quick", "-sizes", "16,32", "-phase-size", "32"})
	if err != nil {
		t.Fatal(err)
	}
	c := opt.cfg
	c.Pool = par.NewPool(2)
	c.Defaults()
	var b strings.Builder
	for _, f := range c.Filters() {
		rows, err := c.CompareArchitectures(f.Name(), study.Architectures())
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(study.ArchTable(f.Name(), rows))
	}
	claims, err := c.CheckClaims()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(study.FormatClaims(claims))
	b.WriteString(captureStdout(t, func() error { return allocateCmd(c, opt) }))

	srv := serve.New(serve.Options{Config: c, CinemaDir: t.TempDir()})
	defer srv.Close()
	h := srv.Handler()
	for _, f := range c.Filters() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/sweep?size=32&alg="+url.QueryEscape(f.Name()), nil))
		if rec.Code != 200 {
			t.Fatalf("/sweep %s: status %d: %s", f.Name(), rec.Code, rec.Body)
		}
		b.WriteString(wallSecLine.ReplaceAllString(rec.Body.String(), ""))
	}

	want, err := os.ReadFile(filepath.Join("testdata", "priced.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("priced outputs differ from testdata/priced.txt:\n--- got\n%s--- want\n%s", got, want)
	}
}

// captureStdout returns what fn prints on os.Stdout.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	read := make(chan string)
	go func() {
		out, _ := io.ReadAll(r)
		read <- string(out)
	}()
	err = fn()
	os.Stdout = stdout
	w.Close()
	out := <-read
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	return out
}
