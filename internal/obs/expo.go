package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
)

// This file implements live exposition for TCP deployments: the
// Prometheus text format (version 0.0.4) rendering of a Snapshot and
// a small HTTP server offering it alongside JSON snapshots and the
// health verdict. Everything is stdlib-only.

// promName mangles "fs.sync.latency#ws1" into a metric family name
// ("frangipani_fs_sync_latency") and an instance label ("ws1").
func promName(name string) (family, instance string) {
	if i := strings.IndexByte(name, '#'); i >= 0 {
		name, instance = name[:i], name[i+1:]
	}
	var b strings.Builder
	b.WriteString("frangipani_")
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String(), instance
}

// promEscape escapes a label value per the exposition format.
func promEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func promLabels(pairs ...string) string {
	var parts []string
	for i := 0; i+1 < len(pairs); i += 2 {
		if pairs[i+1] != "" {
			parts = append(parts, fmt.Sprintf(`%s="%s"`, pairs[i], promEscape(pairs[i+1])))
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Prometheus renders the snapshot in the Prometheus text exposition
// format: counters and gauges one family per metric name, histograms
// as summaries (quantile series plus _count and _sum). Families are
// emitted in sorted order with a single TYPE header each, so the
// output is deterministic and parser-friendly.
func (s Snapshot) Prometheus() string {
	var b strings.Builder
	type series struct{ labels, value string }
	emit := func(byFam map[string][]series, typ string, suffix string) {
		for _, fam := range sortedKeys(byFam) {
			fmt.Fprintf(&b, "# TYPE %s%s %s\n", fam, suffix, typ)
			rows := byFam[fam]
			sort.Slice(rows, func(i, j int) bool { return rows[i].labels < rows[j].labels })
			for _, r := range rows {
				fmt.Fprintf(&b, "%s%s%s %s\n", fam, suffix, r.labels, r.value)
			}
		}
	}

	cf := make(map[string][]series)
	for name, v := range s.Counters {
		fam, inst := promName(name)
		cf[fam] = append(cf[fam], series{promLabels("instance", inst), fmt.Sprintf("%d", v)})
	}
	emit(cf, "counter", "_total")

	gf := make(map[string][]series)
	for name, v := range s.Gauges {
		fam, inst := promName(name)
		gf[fam] = append(gf[fam], series{promLabels("instance", inst), fmt.Sprintf("%d", v)})
	}
	emit(gf, "gauge", "")

	// Histograms render as summaries in nanoseconds.
	hfam := make(map[string]map[string]HistStat) // family -> instance -> stat
	for name, h := range s.Histograms {
		fam, inst := promName(name)
		if hfam[fam] == nil {
			hfam[fam] = make(map[string]HistStat)
		}
		hfam[fam][inst] = h
	}
	for _, fam := range sortedKeys(hfam) {
		fmt.Fprintf(&b, "# TYPE %s_ns summary\n", fam)
		for _, inst := range sortedKeys(hfam[fam]) {
			h := hfam[fam][inst]
			for _, q := range []struct {
				q string
				v int64
			}{{"0.5", h.P50}, {"0.9", h.P90}, {"0.99", h.P99}} {
				fmt.Fprintf(&b, "%s_ns%s %d\n", fam,
					promLabels("instance", inst, "quantile", q.q), q.v)
			}
			fmt.Fprintf(&b, "%s_ns_count%s %d\n", fam, promLabels("instance", inst), h.Count)
			fmt.Fprintf(&b, "%s_ns_sum%s %d\n", fam, promLabels("instance", inst), h.Sum)
		}
	}

	// Resource tables: top-K entries as labeled gauges. Each family's
	// samples stay grouped under its own TYPE line, as the exposition
	// format requires.
	if len(s.Resources) > 0 {
		for _, fam := range []struct {
			name string
			get  func(ResourceStat) int64
		}{
			{"frangipani_resource_wait_ns", func(st ResourceStat) int64 { return st.WaitNs }},
			{"frangipani_resource_acquires", func(st ResourceStat) int64 { return st.Acquires }},
			{"frangipani_resource_events", func(st ResourceStat) int64 { return st.Events }},
		} {
			fmt.Fprintf(&b, "# TYPE %s gauge\n", fam.name)
			for _, table := range sortedKeys(s.Resources) {
				for _, st := range s.Resources[table] {
					lb := promLabels("table", table, "resource", st.Name)
					fmt.Fprintf(&b, "%s%s %d\n", fam.name, lb, fam.get(st))
				}
			}
		}
	}

	// Per-principal accounting rollups: one family per resource kind,
	// labeled by principal, so a scrape can answer "who is using the
	// cluster" without per-principal metric-name explosion.
	if len(s.Accounts) > 0 {
		for _, fam := range []struct {
			name string
			typ  string
			get  func(AccountStat) int64
		}{
			{"frangipani_principal_ops_total", "counter", func(st AccountStat) int64 { return st.Ops }},
			{"frangipani_principal_bytes_in_total", "counter", func(st AccountStat) int64 { return st.BytesIn }},
			{"frangipani_principal_bytes_out_total", "counter", func(st AccountStat) int64 { return st.BytesOut }},
			{"frangipani_principal_wal_bytes_total", "counter", func(st AccountStat) int64 { return st.WALBytes }},
			{"frangipani_principal_rpcs_total", "counter", func(st AccountStat) int64 { return st.RPCs }},
			{"frangipani_principal_server_ops_total", "counter", func(st AccountStat) int64 { return st.ServerOps }},
			{"frangipani_principal_lock_wait_ns_total", "counter", func(st AccountStat) int64 { return st.LockWaitNs }},
			{"frangipani_principal_cache_misses_total", "counter", func(st AccountStat) int64 { return st.CacheMisses }},
			{"frangipani_principal_op_p99_ns", "gauge", func(st AccountStat) int64 { return st.OpP99Ns }},
		} {
			fmt.Fprintf(&b, "# TYPE %s %s\n", fam.name, fam.typ)
			rows := make([]string, 0, len(s.Accounts))
			for _, st := range s.Accounts {
				rows = append(rows, fmt.Sprintf("%s%s %d",
					fam.name, promLabels("principal", st.Principal), fam.get(st)))
			}
			sort.Strings(rows)
			for _, r := range rows {
				b.WriteString(r)
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// HealthFunc supplies the current health report to the endpoint.
type HealthFunc func() HealthReport

// Handler returns an http.Handler exposing the registry:
//
//	/metrics        Prometheus text exposition
//	/snapshot.json  full snapshot as JSON
//	/health         health report as JSON (503 when the verdict is crit)
//
// health may be nil, in which case /health always reports ok with no
// probes.
func Handler(reg *Registry, health HealthFunc) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, reg.Snapshot().Prometheus())
	})
	mux.HandleFunc("/snapshot.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, reg.Snapshot().JSON())
	})
	mux.HandleFunc("/health", func(w http.ResponseWriter, _ *http.Request) {
		var rep HealthReport
		if health != nil {
			rep = health()
		}
		w.Header().Set("Content-Type", "application/json")
		if rep.Verdict == StatusCrit {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	})
	return mux
}

// MetricsServer is a running exposition endpoint.
type MetricsServer struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the bound address (useful with ":0").
func (m *MetricsServer) Addr() string { return m.ln.Addr().String() }

// Close shuts the endpoint down.
func (m *MetricsServer) Close() error { return m.srv.Close() }

// Serve starts the exposition endpoint on addr (e.g. ":9100" or
// "127.0.0.1:0") and serves until Close.
func Serve(addr string, reg *Registry, health HealthFunc) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: Handler(reg, health)}
	go func() { _ = srv.Serve(ln) }()
	return &MetricsServer{ln: ln, srv: srv}, nil
}
