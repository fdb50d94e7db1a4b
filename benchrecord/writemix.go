package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"rex"
	"rex/internal/kb"
	"rex/internal/live"
)

// The write-mix workload: the serve-zipf fleet on durable stores (fsync
// "always", default checkpoint cadence). A fixed-rate stream of seeded
// deltas goes through the router's /admin/delta beside a lighter
// serve-zipf read mix, one client connection each. The run ends with a
// fixed schedule of replica stops and rejoins through internal/sync,
// covering the WAL-tail path (a replica restarted over its own data dir
// after missing a few deltas) and the snapshot path (a replica restarted
// over a wiped data dir once the fleet has checkpointed past the seed).

// deltaGen makes the delta stream: each delta hangs a chain of fresh
// entities off a low-degree entity of the base KB under the "ingest"
// label, like the ingest experiment of cmd/rexbench. Every delta
// registers the label itself (a no-op once it exists), so any acked
// prefix of the stream applies cleanly.
type deltaGen struct {
	g   *kb.Graph
	rng *rand.Rand
	ops int
	n   int
}

func newDeltaGen(g *kb.Graph, ops int, seed int64) *deltaGen {
	return &deltaGen{g: g, rng: rand.New(rand.NewSource(seed)), ops: ops}
}

func (d *deltaGen) next() string {
	var sb strings.Builder
	sb.WriteString("label\tingest\tU\n")
	prev := d.g.NodeName(d.anchor())
	for j := 0; 2*j+1 < d.ops; j++ {
		name := fmt.Sprintf("ing_%d_%d", d.n, j)
		fmt.Fprintf(&sb, "node\t%s\tconcept\n", name)
		fmt.Fprintf(&sb, "edge\t%s\t%s\tingest\n", prev, name)
		prev = name
	}
	d.n++
	return sb.String()
}

// anchor picks a low-degree entity, so one delta invalidates a small
// neighbourhood, as an extraction increment does.
func (d *deltaGen) anchor() kb.NodeID {
	best := kb.NodeID(d.rng.Intn(d.g.NumNodes()))
	for try := 0; try < 64 && d.g.Degree(best) > 8; try++ {
		if id := kb.NodeID(d.rng.Intn(d.g.NumNodes())); d.g.Degree(id) < d.g.Degree(best) {
			best = id
		}
	}
	return best
}

// deltaRec is one /admin/delta broadcast through the router.
type deltaRec struct {
	Body  string
	ReqID string
	T     timing
	Code  int
	Gen   uint64 // the fleet generation the router acknowledged
	Err   error

	Correct bool // acknowledged at the generation the in-process application reached
}

func (d *deltaRec) acked() bool { return d.Err == nil && d.Code == http.StatusOK }

func postDelta(c *http.Client, f *fleet, d *deltaRec) {
	req, err := http.NewRequest(http.MethodPost, f.url+"/admin/delta", strings.NewReader(d.Body))
	if err != nil {
		d.Err = err
		return
	}
	req.Header.Set("X-Request-Id", d.ReqID)
	resp, err := c.Do(req)
	if err != nil {
		d.Err = err
		return
	}
	defer resp.Body.Close()
	d.Code = resp.StatusCode
	var ack struct {
		Generation uint64 `json:"generation"`
	}
	body, err := io.ReadAll(resp.Body)
	if err == nil && d.Code == http.StatusOK {
		err = json.Unmarshal(body, &ack)
	}
	d.Gen, d.Err = ack.Generation, err
}

// rejoinRec is one round of the rejoin schedule.
type rejoinRec struct {
	Mode      string
	CatchupMS float64
	Bytes     uint64
}

// writePass is what a write-mix window and its rejoin schedule leave
// for the checks and metrics.
type writePass struct {
	setup      time.Duration
	loads      []float64
	reads      []readRec
	decodeErrs []error
	deltas     []deltaRec // every broadcast, in the order sent
	windowN    int        // deltas of the measured window (a prefix of deltas)
	heapMB     float64
	rejoins    []rejoinRec
	final      []rex.StoreSnapshot
}

// runWritePass runs the write-mix window and the rejoin schedule on a
// fresh durable fleet; a traced run fills L from the fleet before it
// stops.
func runWritePass(e *env, in *kbInput, pool *zipfPool, L map[string]float64) (*writePass, error) {
	f, setup, loads, err := startServing(e, in, true)
	if err != nil {
		return nil, err
	}
	defer f.close()
	rc, dc := newClient(1), newClient(1)
	defer rc.CloseIdleConnections()
	defer dc.CloseIdleConnections()

	warm := pool.stream(requestsFor(e.P.Rate, e.P.WarmupS), e.Seed+4)
	runReads(rc, f, warm, e.P.Rate, 1, e.P.BudgetMS, false, "w")

	gen := newDeltaGen(in.G, e.P.DeltaOps, e.Seed+5)
	deltas := make([]deltaRec, requestsFor(e.P.DeltaRate, e.Seconds))
	for i := range deltas {
		deltas[i] = deltaRec{Body: gen.next(), ReqID: "d" + strconv.Itoa(i)}
	}
	reqs := pool.stream(requestsFor(e.P.Rate, e.Seconds), e.Seed+3)
	r0 := f.reps[0]
	ds0, ls0 := r0.store.DurabilityStats(), r0.store.LiveStats()
	rc0, err := f.routerCounters(rc)
	if err != nil {
		return nil, err
	}
	depthMax := 0
	runtime.GC()
	heap := startHeapSampler()
	var (
		reads []readRec
		wg    sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		reads = runReads(rc, f, reqs, e.P.Rate, 1, e.P.BudgetMS, e.Trace, windowReqPrefix)
	}()
	interval := time.Duration(float64(time.Second) / e.P.DeltaRate)
	tm := openLoop(time.Now().Add(5*time.Millisecond), interval, len(deltas), 1, func(i int) {
		postDelta(dc, f, &deltas[i])
		depthMax = max(depthMax, r0.store.LiveStats().OverlayDepth)
	})
	wg.Wait()
	p := &writePass{setup: setup, loads: loads, reads: reads, heapMB: heap.Stop(), windowN: len(deltas)}
	for i := range deltas {
		deltas[i].T = tm[i]
	}
	for i := range reads {
		if err := reads[i].decode(); err != nil {
			p.decodeErrs = append(p.decodeErrs, err)
		}
	}
	if e.Trace {
		if err := serveLayers(L, f, rc, reads, rc0); err != nil {
			return nil, err
		}
		writeLayers(L, f, deltas, depthMax, ds0, ls0)
	}

	// The rejoin schedule, after the window.
	p.deltas = deltas
	for _, mode := range e.P.Rejoins {
		rj, err := rejoin(e, f, dc, gen, mode, &p.deltas)
		if err != nil {
			return nil, fmt.Errorf("rejoin (%s): %w", mode, err)
		}
		p.rejoins = append(p.rejoins, rj)
	}
	for _, r := range f.reps {
		p.final = append(p.final, r.store.Current())
	}
	return p, nil
}

// writeLayers fills the write-path metrics of a traced window from the
// replica taps and r0's store counters, counted from ds0 and ls0, their
// values when the window opened.
func writeLayers(L map[string]float64, f *fleet, deltas []deltaRec, depthMax int, ds0 rex.DurabilityStats, ls0 rex.LiveStats) {
	n := float64(len(deltas))
	var handler []tapRec
	var deltaMS []float64
	for _, r := range f.reps {
		for _, t := range r.tap.records() {
			if t.Path == "/admin/delta" {
				handler = append(handler, t)
				deltaMS = append(deltaMS, ms(t.Dur))
			}
		}
	}
	L["serve.delta_p50_ms"] = median(deltaMS)
	// The broadcast fans out in parallel, so its own time is the
	// client's span minus the slowest replica apply inside it.
	var self []float64
	bodyBytes := 0
	for i := range deltas {
		d := &deltas[i]
		bodyBytes += len(d.Body)
		var slowest time.Duration
		for _, t := range handler {
			if !t.Start.Before(d.T.Sent) && t.Start.Before(d.T.Done) {
				slowest = max(slowest, t.Dur)
			}
		}
		if d.acked() {
			self = append(self, ms(d.T.Done.Sub(d.T.Sent)-slowest))
		}
	}
	L["cluster.broadcast_self_ms"] = median(self)

	r0 := f.reps[0].store
	ds, ls := r0.DurabilityStats(), r0.LiveStats()
	L["live.fsyncs_per_delta"] = ratio(float64(ds.Fsyncs-ds0.Fsyncs), n)
	L["live.wal_bytes_per_delta_byte"] = ratio(float64(ds.AppendedBytes-ds0.AppendedBytes), float64(bodyBytes))
	perDelta(L, n, "live.checkpoints", float64(ds.Checkpoints-ds0.Checkpoints))
	perDelta(L, n, "live.compactions", float64(ls.Compactions-ls0.Compactions))
	L["live.overlay_depth_max"] = float64(depthMax)
	perDelta(L, n, "rex.results_carried", float64(ls.ResultsCarried-ls0.ResultsCarried))
	perDelta(L, n, "rex.results_dropped", float64(ls.ResultsDropped-ls0.ResultsDropped))
	perDelta(L, n, "measure.memo_promotions", float64(ls.MemoPromotions-ls0.MemoPromotions))
}

func perDelta(L map[string]float64, n float64, name string, v float64) {
	L[name] = v
	L[name+"_per_delta"] = ratio(v, n)
}

// rejoin runs one round of the schedule on replica r1: stop it, let the
// fleet move LagDeltas deltas ahead, restart it — over its own data dir
// ("wal") or a wiped one ("snapshot") — and time from the restart until
// its sync engine, on its own, has brought it to r0's fingerprint.
func rejoin(e *env, f *fleet, c *http.Client, gen *deltaGen, mode string, deltas *[]deltaRec) (rejoinRec, error) {
	r0, r1 := f.reps[0], f.reps[1]
	send := func(phase string) error {
		d := deltaRec{Body: gen.next(), ReqID: phase + strconv.Itoa(len(*deltas))}
		d.T.Due = time.Now()
		d.T.Sent = d.T.Due
		postDelta(c, f, &d)
		d.T.Done = time.Now()
		*deltas = append(*deltas, d)
		if !d.acked() {
			return fmt.Errorf("delta %s not acknowledged: status %d, %v", d.ReqID, d.Code, d.Err)
		}
		return nil
	}
	// Which path a rejoin takes depends only on r0's checkpoint horizon,
	// so the schedule steers it: the WAL tail must still hold r1's
	// generation after the lag deltas, and a wiped r1 (at the seed
	// generation) must be below the horizon.
	sinceCkpt := func() int {
		return int(r0.store.Generation() - r0.store.DurabilityStats().CheckpointGen)
	}
	switch mode {
	case "wal":
		for sinceCkpt()+e.P.LagDeltas >= live.DefaultCheckpointEvery {
			if err := send("fill"); err != nil {
				return rejoinRec{}, err
			}
		}
	case "snapshot":
		for r0.store.DurabilityStats().CheckpointGen <= 1 {
			if err := send("fill"); err != nil {
				return rejoinRec{}, err
			}
		}
	default:
		return rejoinRec{}, fmt.Errorf("unknown rejoin mode %q", mode)
	}
	if err := r1.kill(mode == "snapshot"); err != nil {
		return rejoinRec{}, err
	}
	for i := 0; i < e.P.LagDeltas; i++ {
		if err := send("lag"); err != nil {
			return rejoinRec{}, err
		}
	}
	want := r0.store.Current()

	// The rejoin is the engine's own: restarted, r1 starts its
	// background loop, whose first step is the boot-time catch-up
	// (probe the peers, then the WAL tail or the snapshot). The clock
	// runs from the restart until r1 serves r0's version; the benchmark
	// only watches.
	t0 := time.Now()
	if err := f.restart(r1); err != nil {
		return rejoinRec{}, err
	}
	r1.engine.Start()
	for deadline := t0.Add(60 * time.Second); ; time.Sleep(time.Millisecond) {
		if cur := r1.store.Current(); cur.Fingerprint == want.Fingerprint && cur.Generation == want.Generation {
			break
		}
		if time.Now().After(deadline) {
			return rejoinRec{}, fmt.Errorf("r1 never reached generation %d", want.Generation)
		}
	}
	rj := rejoinRec{Mode: mode, CatchupMS: ms(time.Since(t0))}
	// Stop the loop once caught up, so its later probes cannot race the
	// next round's broadcasts; r1's engine still answers router kicks.
	r1.engine.Stop()
	st := r1.engine.Stats()
	rj.Bytes = st.WALBytes + st.SnapshotBytes
	gotMode := "wal"
	if st.Snapshots > 0 {
		gotMode = "snapshot"
	}
	if gotMode != mode {
		return rj, fmt.Errorf("scheduled a %s rejoin, the engine took the %s path", mode, gotMode)
	}
	e.logf("rejoin %s: r1 restarted and matched r0 at generation %d in %.1fms (%d bytes transferred)",
		mode, want.Generation, rj.CatchupMS, rj.Bytes)
	return rj, f.waitRoutable(fleetSize)
}

func runWriteMix(e *env) (*outcome, error) {
	in, zp, err := servingInputs(e)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	p, err := runWritePass(e, in, zp, out.Layer)
	if err != nil {
		return nil, err
	}
	for _, err := range p.decodeErrs {
		out.check(false, "%v", err)
	}
	refFP, err := checkHistory(in, p, out)
	if err != nil {
		return nil, err
	}
	sum := summarizeReads(p.reads, e.P.LimitMS, func(g uint64, fp string) bool { return refFP[g] == fp })
	sum.log(e, e.P.LimitMS)
	acked, as := p.applies()
	goodDeltas := 0
	for _, d := range p.deltas[:p.windowN] {
		if d.acked() && d.Correct && d.T.latencyMS() <= e.P.LimitMS {
			goodDeltas++
		}
	}
	e.logf("accounting deltas: attempted %d, acknowledged %d, failed %d; goodput %d/%d attempted, correct within %.0fms; apply %s from due time",
		p.windowN, acked, p.windowN-acked, goodDeltas, p.windowN, e.P.LimitMS, as)
	out.Attempted = sum.Sent + p.windowN
	out.Failed = sum.Sent - sum.Answered + p.windowN - acked
	out.E2E["setup_s"] = p.setup.Seconds()
	// Goodput counts every request the two clients sent, reads and
	// deltas alike.
	out.E2E["goodput_share"] = ratio(float64(sum.Good+goodDeltas), float64(out.Attempted))
	e.logf("goodput: %d reads + %d deltas good of %d requests attempted", sum.Good, goodDeltas, out.Attempted)
	sum.figures(e)
	e.figure("apply_p50_ms", as.P50, "ms")
	e.figure("apply_tail_ms", as.Tail, "ms")
	e.figure("catchup_ms", meanCatchup(p.rejoins), "ms")
	e.figure("heap_peak_mb", p.heapMB, "MB")
	L := out.Layer
	L["kb.load_ms"] = median(p.loads)
	L["rex.post_swap_hit_ratio"] = postSwapHitRatio(p.reads)
	sum.userLayers(L)
	if e.Trace {
		L["trace.overhead_share"] = traceOverhead(e, p.reads)
	}
	L["cluster.apply_p50_ms"], L["cluster.apply_tail_ms"] = as.P50, as.Tail
	rejoinLayers(L, p.rejoins)
	var lag []float64
	for _, d := range p.deltas[:p.windowN] {
		lag = append(lag, d.T.lagMS())
	}
	for i := range p.reads {
		lag = append(lag, p.reads[i].T.lagMS())
	}
	L["loadgen.lag_tail_ms"] = summarize(lag).Tail
	e.logf("setup: median %.1fms over %d durable fleet set-ups", ms(p.setup), e.P.Setups)
	return out, nil
}

// applies counts the window's acknowledged deltas and summarizes their
// acknowledgement latency from due time.
func (p *writePass) applies() (int, latencySummary) {
	var apply []float64
	for _, d := range p.deltas[:p.windowN] {
		if d.acked() {
			apply = append(apply, d.T.latencyMS())
		}
	}
	return len(apply), summarize(apply)
}

// rejoinLayers reports the rejoin schedule: the mean catch-up over all
// rounds (a mean, since the rounds mix two transfer paths), per path,
// and the bytes each round transferred.
func rejoinLayers(L map[string]float64, rjs []rejoinRec) {
	var wal, snap, bytes float64
	nw, ns := 0, 0
	for _, r := range rjs {
		bytes += float64(r.Bytes)
		if r.Mode == "wal" {
			wal += r.CatchupMS
			nw++
		} else {
			snap += r.CatchupMS
			ns++
		}
	}
	L["sync.catchup_ms"] = meanCatchup(rjs)
	L["sync.wal_tail_ms"] = ratio(wal, float64(nw))
	L["sync.snapshot_ms"] = ratio(snap, float64(ns))
	L["sync.bytes_per_rejoin"] = ratio(bytes, float64(len(rjs)))
}

// meanCatchup is the mean catch-up time of a rejoin schedule.
func meanCatchup(rjs []rejoinRec) float64 {
	total := 0.0
	for _, r := range rjs {
		total += r.CatchupMS
	}
	return ratio(total, float64(len(rjs)))
}

// postSwapHitRatio is the result-cache hit ratio of the first read
// answered at each new generation: how warm a swap leaves the cache.
func postSwapHitRatio(reads []readRec) float64 {
	var last uint64
	first, hits := 0, 0
	for i := range reads {
		r := &reads[i]
		if !r.ok() || r.Generation <= last {
			continue
		}
		last = r.Generation
		if last < 2 || r.Report == nil {
			continue
		}
		first++
		if r.Report.CacheHit {
			hits++
		}
	}
	return ratio(float64(hits), float64(first))
}

// checkHistory checks the recorded history of a pass and returns the
// fingerprint of every generation of the acknowledged delta stream
// applied in-process:
//   - acknowledged generations rise by one per delta and match the
//     in-process application step for step;
//   - the read client's generations never decrease;
//   - every read answered at a generation carries that generation's
//     fingerprint, so each generation has exactly one;
//   - every replica, rejoined ones included, ends at the fingerprint of
//     the whole acknowledged stream.
func checkHistory(in *kbInput, p *writePass, out *outcome) (map[uint64]string, error) {
	k, err := rex.LoadKB(in.Snapshot)
	if err != nil {
		return nil, err
	}
	ref, err := rex.NewStore(k, rex.Options{})
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	cur := ref.Current()
	refFP := map[uint64]string{cur.Generation: cur.Fingerprint}
	for i := range p.deltas {
		d := &p.deltas[i]
		if !d.acked() {
			continue
		}
		info, err := ref.Apply(strings.NewReader(d.Body))
		if err != nil {
			return nil, fmt.Errorf("in-process apply of %s: %w", d.ReqID, err)
		}
		refFP[info.Generation] = info.Fingerprint
		d.Correct = info.Generation == d.Gen
		out.check(d.Correct, "delta %s acknowledged at generation %d, in-process application reached %d",
			d.ReqID, d.Gen, info.Generation)
	}
	var last uint64
	seen := map[uint64]string{}
	for i := range p.reads {
		r := &p.reads[i]
		if !r.ok() {
			continue
		}
		out.check(r.Generation >= last, "read %s went back from generation %d to %d", r.ReqID, last, r.Generation)
		last = max(last, r.Generation)
		if fp, ok := seen[r.Generation]; ok && fp != r.Fingerprint {
			out.check(false, "generation %d served with fingerprints %s and %s", r.Generation, fp, r.Fingerprint)
		}
		seen[r.Generation] = r.Fingerprint
		out.check(refFP[r.Generation] == r.Fingerprint, "read %s at generation %d has fingerprint %s, the acknowledged stream gives %s",
			r.ReqID, r.Generation, r.Fingerprint, refFP[r.Generation])
	}
	want := ref.Current()
	for i, s := range p.final {
		out.check(s.Generation == want.Generation && s.Fingerprint == want.Fingerprint,
			"replica r%d ends at %d/%s, the acknowledged stream gives %d/%s", i, s.Generation, s.Fingerprint, want.Generation, want.Fingerprint)
	}
	return refFP, nil
}
