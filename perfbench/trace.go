package main

import (
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"perfknow/internal/vfs"
)

// maxSpans bounds the spans kept in memory for the trace file; the per-name
// samples behind the per-layer metrics are kept regardless.
const maxSpans = 200_000

// tracer records spans the benchmark opens around its calls into each
// layer, plus counters taken at the same boundaries. A nil *tracer is valid
// and records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu      sync.Mutex
	spans   []spanRecord
	samples map[string][]float64 // span or observation name → values
	counts  map[string]float64
}

type spanRecord struct {
	ID       int64   `json:"id"`
	Name     string  `json:"name"`
	StartMs  float64 `json:"start_ms"`
	Duration float64 `json:"duration_ms"`
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), samples: map[string][]float64{}, counts: map[string]float64{}}
}

// span is an open span; end records it.
type span struct {
	tr    *tracer
	id    int64
	name  string
	start time.Time
}

// start opens a span named after the layer call it wraps.
func (t *tracer) start(name string) *span {
	if t == nil {
		return nil
	}
	return &span{tr: t, id: t.nextID.Add(1), name: name, start: time.Now()}
}

// end closes the span and returns its duration in milliseconds.
func (s *span) end() float64 {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	ms := float64(d) / float64(time.Millisecond)
	t := s.tr
	t.mu.Lock()
	t.samples[s.name] = append(t.samples[s.name], ms)
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, spanRecord{ID: s.id, Name: s.name,
			StartMs: float64(s.start.Sub(t.epoch)) / float64(time.Millisecond), Duration: ms})
	}
	t.mu.Unlock()
	return ms
}

// observe adds a sample that is not a span (a difference of two spans).
func (t *tracer) observe(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

func (t *tracer) count(name string, n float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// reset drops what the warm-up round recorded.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.samples = map[string][]float64{}
	t.counts = map[string]float64{}
	t.mu.Unlock()
}

// median of a sample set, 0 when it has no samples.
func (t *tracer) median(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return median(t.samples[name])
}

func (t *tracer) n(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return float64(len(t.samples[name]))
}

func (t *tracer) counter(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// writeSpans writes every recorded span, sorted by start, as JSON.
func writeSpans(path string, byWorkload map[string]*tracer) error {
	out := map[string][]spanRecord{}
	for name, t := range byWorkload {
		t.mu.Lock()
		s := append([]spanRecord(nil), t.spans...)
		t.mu.Unlock()
		sort.Slice(s, func(i, j int) bool { return s[i].StartMs < s[j].StartMs })
		out[name] = s
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedFS is a timing and counting vfs.FS wrapper: it counts the calls
// that flush to stable storage (WriteFile fsyncs the file, SyncDir the
// directory), the bytes written, and the time spent inside the filesystem,
// which lets a save's own time be told apart from its I/O. Each flushing
// call is timed whole as vfs.durable_write: a WriteFile's open, write, fsync
// and close, or a SyncDir; the fsync alone is out of a wrapper's reach.
type tracedFS struct {
	inner   vfs.FS
	tr      *tracer
	ioNanos atomic.Int64
	fsyncs  atomic.Int64
	bytes   atomic.Int64
}

func osFS() vfs.FS { return vfs.OS{} }

func newTracedFS(inner vfs.FS, tr *tracer) *tracedFS { return &tracedFS{inner: inner, tr: tr} }

func (f *tracedFS) timed(fsync bool, fn func() error) error {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	f.ioNanos.Add(int64(d))
	if fsync {
		f.fsyncs.Add(1)
		f.tr.observe("vfs.durable_write", float64(d)/float64(time.Millisecond))
	}
	return err
}

func (f *tracedFS) MkdirAll(path string, perm fs.FileMode) error {
	return f.timed(false, func() error { return f.inner.MkdirAll(path, perm) })
}

func (f *tracedFS) ReadFile(path string) (data []byte, err error) {
	err = f.timed(false, func() error { data, err = f.inner.ReadFile(path); return err })
	return data, err
}

func (f *tracedFS) WriteFile(path string, data []byte, perm fs.FileMode) error {
	f.bytes.Add(int64(len(data)))
	return f.timed(true, func() error { return f.inner.WriteFile(path, data, perm) })
}

func (f *tracedFS) Rename(oldpath, newpath string) error {
	return f.timed(false, func() error { return f.inner.Rename(oldpath, newpath) })
}

func (f *tracedFS) Remove(path string) error {
	return f.timed(false, func() error { return f.inner.Remove(path) })
}

func (f *tracedFS) ReadDir(path string) (ents []fs.DirEntry, err error) {
	err = f.timed(false, func() error { ents, err = f.inner.ReadDir(path); return err })
	return ents, err
}

func (f *tracedFS) Stat(path string) (info fs.FileInfo, err error) {
	err = f.timed(false, func() error { info, err = f.inner.Stat(path); return err })
	return info, err
}

func (f *tracedFS) SyncDir(path string) error {
	return f.timed(true, func() error { return f.inner.SyncDir(path) })
}

// tracedRT is a timing and counting http.RoundTripper for the clients the
// benchmark hands to dmfclient (WithTransport) and to the cluster store (its
// per-peer client options). It counts request and response body bytes and
// times each request, from sending to the close of its response body, under
// a route label.
type tracedRT struct {
	inner http.RoundTripper
	tr    *tracer
}

func (rt *tracedRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.ContentLength > 0 {
		rt.tr.count("dmfwire.bytes", float64(req.ContentLength))
	}
	label := routeLabel(req)
	sp := rt.tr.start("http." + label)
	resp, err := rt.inner.RoundTrip(req)
	if err != nil {
		sp.end()
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, rt: rt, sp: sp}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	rt   *tracedRT
	sp   *span
	n    int64
	once sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.rt.tr.count("dmfwire.bytes", float64(b.n))
		b.sp.end()
	})
	return err
}

// routeLabel names a request by its route, with ids and coordinates
// removed.
func routeLabel(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/api/v1/trials" && r.Method == http.MethodPost:
		f := r.URL.Query().Get("format")
		if f == "" {
			f = "json"
		}
		return "upload." + f
	case strings.HasPrefix(p, "/api/v1/streams/") && strings.HasSuffix(p, "/chunks"):
		return "stream.append"
	case strings.HasPrefix(p, "/api/v1/streams/") && strings.HasSuffix(p, "/seal"):
		return "stream.seal"
	case p == "/api/v1/streams":
		return "stream.open"
	case strings.HasPrefix(p, "/api/v1/apps/") && strings.Contains(p, "/trials/"):
		return strings.ToLower(r.Method) + ".trial"
	case strings.HasPrefix(p, "/api/v1/"):
		return strings.ToLower(r.Method) + "." + strings.ReplaceAll(strings.TrimPrefix(p, "/api/v1/"), "/", "_")
	}
	return strings.ToLower(r.Method) + ".other"
}

// newTransport gives each client its own connection pool, so traced and
// untraced runs start from the same transport.
func newTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 4
	return t
}

// transport returns the client transport for env: wrapped when traced.
func (e *env) transport() http.RoundTripper {
	if e.tr == nil {
		return newTransport()
	}
	return &tracedRT{inner: newTransport(), tr: e.tr}
}

// fs returns the filesystem for a repository: vfs.OS, wrapped when traced.
func (e *env) fs() vfs.FS {
	if e.tr == nil {
		return vfs.OS{}
	}
	return newTracedFS(vfs.OS{}, e.tr)
}
