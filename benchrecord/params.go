package main

// params are a workload's fixed settings. They are part of the
// benchmark's definition: BENCHMARK.json and README.md record them, and
// every run prints them in its provenance line.
type params struct {
	Preset     string  `json:"preset"`
	Setups     int     `json:"setups"`                // set-up repetitions; setup_s is their median
	PerBucket  int     `json:"per_bucket"`            // pairs sampled per connectedness bucket
	LimitMS    float64 `json:"limit_ms"`              // latency limit of goodput_share
	CheckPairs int     `json:"check_pairs,omitempty"` // cold-tail: pairs re-ranked layer by layer after an untraced run

	CacheSize int     `json:"cache_size,omitempty"` // replica result-cache entries
	ZipfS     float64 `json:"zipf_s,omitempty"`     // popularity exponent within a tenant's share of the pool
	Tenants   int     `json:"tenants,omitempty"`    // tenants the pool is dealt to; each read comes from one
	Rate      float64 `json:"rate,omitempty"`       // open-loop reads per second
	BudgetMS  int64   `json:"budget_ms,omitempty"`  // budget_ms carried by every read
	WarmupS   float64 `json:"warmup_s,omitempty"`   // untimed reads before the window, same rate

	DeltaRate float64  `json:"delta_rate,omitempty"` // open-loop deltas per second
	DeltaOps  int      `json:"delta_ops,omitempty"`  // records per delta
	LagDeltas int      `json:"lag_deltas,omitempty"` // deltas a stopped replica misses before it rejoins
	Rejoins   []string `json:"rejoins,omitempty"`    // rejoin schedule: "wal" or "snapshot" per round
}

func defaultParams(workload string) params {
	switch workload {
	case "cold-tail":
		return params{Preset: "medium", Setups: 15, PerBucket: 200, LimitMS: 500, CheckPairs: 6}
	case "serve-zipf":
		return params{Preset: "medium", Setups: 15, PerBucket: 500, LimitMS: 100,
			CacheSize: 256, ZipfS: 0.9, Tenants: 32, Rate: 35, BudgetMS: 50, WarmupS: 5}
	case "write-mix":
		return params{Preset: "medium", Setups: 15, PerBucket: 500, LimitMS: 250,
			CacheSize: 256, ZipfS: 0.9, Tenants: 32, Rate: 10, BudgetMS: 50, WarmupS: 5,
			DeltaRate: 5, DeltaOps: 20, LagDeltas: 4, Rejoins: []string{"wal", "snapshot", "wal", "snapshot"}}
	}
	return params{}
}
