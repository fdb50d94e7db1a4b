package main

import (
	"net/http"
	"strings"
)

// serveLayers fills the per-layer metrics of a traced serving window of
// reads: the replica taps (handler spans, correlated with the client's
// requests by X-Request-Id), the engine trace reports the replicas
// attach to traced answers, the replicas' evaluator memo occupancy and
// the router's /metrics counters, counted from rc0, their values when
// the window opened. Counts from trace reports are per traced answer;
// router counts are per read sent.
func serveLayers(L map[string]float64, f *fleet, c *http.Client, reads []readRec, rc0 map[string]float64) error {
	n := len(reads)
	handler := map[string]tapRec{} // replica/request ID -> the replica's last attempt
	var explainMS []float64
	explains, shed := 0, 0
	for _, r := range f.reps {
		for _, t := range r.tap.records() {
			if t.Path != "/explain" || !strings.HasPrefix(t.ReqID, windowReqPrefix) {
				continue // another endpoint, or a warm-up read
			}
			explains++
			if t.Status == http.StatusTooManyRequests {
				shed++
			}
			explainMS = append(explainMS, ms(t.Dur))
			handler[r.name+"/"+t.ReqID] = t
		}
	}
	hs := summarize(explainMS)
	L["serve.explain_p50_ms"], L["serve.explain_tail_ms"] = hs.P50, hs.Tail
	L["serve.shed_share"] = ratio(float64(shed), float64(explains))

	var routerSelf, lag []float64
	var tot obsTotals
	deduped := 0
	for i := range reads {
		r := &reads[i]
		lag = append(lag, r.T.lagMS())
		if !r.ok() {
			continue
		}
		if t, ok := handler[r.Replica+"/"+r.ReqID]; ok {
			routerSelf = append(routerSelf, ms(r.T.Done.Sub(r.T.Sent)-t.Dur))
		}
		tot.add(r.Report)
		if r.Report != nil && r.Report.Deduped {
			deduped++
		}
	}
	L["cluster.router_self_ms"] = median(routerSelf)
	L["loadgen.lag_tail_ms"] = summarize(lag).Tail
	L["rex.cache_hit_ratio"] = ratio(float64(tot.CacheHits), float64(tot.Reports))
	perQuery(L, tot.Reports, "rex.flight_dedup", float64(deduped))

	tot.fill(L, tot.Reports)
	st := tot.Stages
	L["enumerate.self_ms"] = ms(st["enumerate"])
	L["pattern.merge_ms"] = ms(st["merge"])
	L["rank.self_ms"] = ms(st["rank"])
	L["measure.self_ms"] = ms(st["measure"] - st["match"])
	L["match.ms"] = ms(st["match"])
	perQuery(L, tot.Reports, "measure.calls", float64(tot.Calls["measure"]))

	cells, prefix := 0, 0
	for _, r := range f.reps {
		m := r.store.Current().Explainer.MemoStats()
		cells += m.TableCells
		prefix += m.PrefixNodes
	}
	L["measure.table_cells"], L["measure.prefix_nodes"] = float64(cells), float64(prefix)

	rc, err := f.routerCounters(c)
	if err != nil {
		return err
	}
	for _, m := range []struct{ metric, counter string }{
		{"cluster.retries", "rex_router_retries_total"},
		{"cluster.hedges_fired", "rex_router_hedges_fired_total"},
		{"cluster.failovers", "rex_router_failovers_total"},
	} {
		perQuery(L, n, m.metric, rc[m.counter]-rc0[m.counter])
	}
	return nil
}
