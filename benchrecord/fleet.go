package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"rex"
	"rex/internal/cluster"
	"rex/internal/serve"
	rexsync "rex/internal/sync"
)

// The serving workloads run a fleet of two in-process replicas — each a
// rex.Store behind serve.Server.Handler() on its own loopback listener —
// behind a cluster.Router that also listens on loopback, so every hop
// is real HTTP.

// fleetConfig fixes how a fleet's replicas are built.
type fleetConfig struct {
	Snapshot string
	Options  rex.Options // per-replica explainer options (result cache on)
	Durable  bool        // journal with fsync "always" and the default checkpoint cadence
	Dir      string      // parent of the replicas' data and spool dirs
	Traced   bool        // wrap every replica handler in a tap
}

// replicaNode is one replica and everything it owns.
type replicaNode struct {
	name, addr, url string
	peers           []string
	dataDir, spool  string

	store  *rex.Store
	engine *rexsync.Engine
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returns
	tap    *tap
}

// fleet is a running tier: the replicas, the router and its listener.
type fleet struct {
	cfg      fleetConfig
	reps     []*replicaNode
	rt       *cluster.Router
	rtSrv    *http.Server
	rtServed chan struct{}
	url      string // router base URL
	loadMS   []float64
}

const fleetSize = 2

// startFleet boots the replicas and the router and returns once a query
// through the router is answerable.
func startFleet(cfg fleetConfig) (*fleet, error) {
	f := &fleet{cfg: cfg}
	lns := make([]net.Listener, fleetSize)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll(lns[:i])
			return nil, err
		}
		lns[i] = ln
	}
	for i, ln := range lns {
		r := &replicaNode{
			name:    fmt.Sprintf("r%d", i),
			addr:    ln.Addr().String(),
			url:     "http://" + ln.Addr().String(),
			dataDir: filepath.Join(cfg.Dir, fmt.Sprintf("r%d-data", i)),
			spool:   filepath.Join(cfg.Dir, fmt.Sprintf("r%d-spool", i)),
		}
		if cfg.Traced {
			r.tap = &tap{}
		}
		f.reps = append(f.reps, r)
	}
	for i, r := range f.reps {
		for j, p := range f.reps {
			if i != j {
				r.peers = append(r.peers, p.url)
			}
		}
	}
	for i, r := range f.reps {
		if err := f.boot(r, lns[i]); err != nil {
			closeAll(lns[i+1:])
			f.stop()
			return nil, err
		}
	}
	rcs := make([]cluster.ReplicaConfig, len(f.reps))
	for i, r := range f.reps {
		rcs[i] = cluster.ReplicaConfig{Name: r.name, URL: r.url}
	}
	rt, err := cluster.New(cluster.Config{Replicas: rcs, HealthInterval: 250 * time.Millisecond})
	if err != nil {
		f.stop()
		return nil, err
	}
	rt.Start()
	f.rt = rt
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.stop()
		return nil, err
	}
	f.url = "http://" + ln.Addr().String()
	f.rtSrv = &http.Server{Handler: rt.Handler()}
	f.rtServed = make(chan struct{})
	go func() {
		defer close(f.rtServed)
		f.rtSrv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	}()
	if err := f.waitRoutable(fleetSize); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func closeAll(lns []net.Listener) {
	for _, ln := range lns {
		ln.Close()
	}
}

// boot builds r's store from the snapshot (recovering its data dir when
// durable) and serves it on ln.
func (f *fleet) boot(r *replicaNode, ln net.Listener) error {
	t0 := time.Now()
	k, err := rex.LoadKB(f.cfg.Snapshot)
	if err != nil {
		ln.Close()
		return err
	}
	f.loadMS = append(f.loadMS, ms(time.Since(t0)))
	opt := f.cfg.Options
	if f.cfg.Durable {
		opt.Durability = rex.DurabilityOptions{Dir: r.dataDir, Fsync: "always"}
	}
	store, err := rex.NewStore(k, opt)
	if err != nil {
		ln.Close()
		return err
	}
	srv := serve.New(store, serve.Config{Timeout: 30 * time.Second, Name: r.name})
	var engine *rexsync.Engine
	if f.cfg.Durable {
		if err := os.MkdirAll(r.spool, 0o755); err != nil {
			ln.Close()
			store.Close()
			return err
		}
		engine, err = rexsync.New(store, rexsync.Config{Peers: r.peers, SpoolDir: r.spool})
		if err != nil {
			ln.Close()
			store.Close()
			return err
		}
		srv.SetSync(engine, false)
	}
	h := srv.Handler()
	if r.tap != nil {
		h = r.tap.wrap(h)
	}
	r.store, r.engine = store, engine
	r.hs = &http.Server{Handler: h}
	r.served = make(chan struct{})
	go func(hs *http.Server, done chan struct{}) {
		defer close(done)
		hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	}(r.hs, r.served)
	return nil
}

// kill stops r abruptly: listener and connections close, the store is
// closed (its journal is fsynced on every append, so nothing is lost
// that a crash would keep). With wipe, its data dir is removed too.
func (r *replicaNode) kill(wipe bool) error {
	if r.hs != nil {
		r.hs.Close()
		<-r.served
		r.hs = nil
	}
	if r.engine != nil {
		r.engine.Stop()
	}
	var err error
	if r.store != nil {
		err = r.store.Close()
		r.store = nil
	}
	if wipe {
		if rerr := os.RemoveAll(r.dataDir); rerr != nil && err == nil {
			err = rerr
		}
	}
	return err
}

// restart boots r again on its old address.
func (f *fleet) restart(r *replicaNode) error {
	var (
		ln  net.Listener
		err error
	)
	for deadline := time.Now().Add(5 * time.Second); ; {
		if ln, err = net.Listen("tcp", r.addr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("rebind %s: %w", r.addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return f.boot(r, ln)
}

// stop tears the whole fleet down and waits for every server goroutine.
func (f *fleet) stop() {
	if f.rtSrv != nil {
		f.rtSrv.Close()
		<-f.rtServed
	}
	if f.rt != nil {
		f.rt.Close()
	}
	for _, r := range f.reps {
		r.kill(false) //nolint:errcheck // tearing down; the run is over
	}
}

// close stops the fleet and removes its data and spool dirs.
func (f *fleet) close() {
	f.stop()
	os.RemoveAll(f.cfg.Dir) //nolint:errcheck // scratch under the run dir, which is removed at exit too
}

// waitRoutable polls the router's /healthz until n replicas are routable.
func (f *fleet) waitRoutable(n int) error {
	var last string
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(f.url + "/healthz")
		if err != nil {
			last = err.Error()
			continue
		}
		var h struct {
			RoutableCount int `json:"routable_count"`
		}
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err == nil && h.RoutableCount >= n {
			return nil
		}
		last = fmt.Sprintf("status %d, %d routable", resp.StatusCode, h.RoutableCount)
	}
	return fmt.Errorf("router never saw %d routable replicas: %s", n, last)
}

// routerCounters scrapes the router's /metrics and sums every sample by
// metric name.
func (f *fleet) routerCounters(c *http.Client) (map[string]float64, error) {
	resp, err := c.Get(f.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseProm(resp.Body)
}

// parseProm sums Prometheus text-format samples by metric name.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// tapRec is one request a replica handler served: the span the
// benchmark records at the replica's HTTP boundary.
type tapRec struct {
	ReqID, Path string
	Status      int
	Start       time.Time
	Dur         time.Duration
}

// tap wraps a replica handler and records every request it serves.
type tap struct {
	mu   sync.Mutex
	recs []tapRec
}

func (t *tap) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		h.ServeHTTP(sw, r)
		rec := tapRec{ReqID: r.Header.Get("X-Request-Id"), Path: r.URL.Path, Status: sw.status, Start: t0, Dur: time.Since(t0)}
		t.mu.Lock()
		t.recs = append(t.recs, rec)
		t.mu.Unlock()
	})
}

func (t *tap) records() []tapRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]tapRec(nil), t.recs...)
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// newClient is the load generator's HTTP client: conns bounds its
// connections to the router.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     90 * time.Second,
	}}
}
