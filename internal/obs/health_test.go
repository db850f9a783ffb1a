package obs

import (
	"strings"
	"testing"
)

func TestHealthVerdictIsWorstProbe(t *testing.T) {
	probes := []ProbeResult{
		{Name: "b-ok", Status: StatusOK, Detail: "fine"},
		{Name: "a-warn", Status: StatusWarn, Detail: "close to limit"},
	}
	rep := NewHealthReport(probes)
	if rep.Verdict != StatusWarn {
		t.Fatalf("verdict = %v, want warn", rep.Verdict)
	}
	probes = append(probes, ProbeResult{Name: "c-crit", Status: StatusCrit, Detail: "expired"})
	rep = NewHealthReport(probes)
	if rep.Verdict != StatusCrit {
		t.Fatalf("verdict = %v, want crit", rep.Verdict)
	}
	// Worst first, then by name.
	order := []string{"c-crit", "a-warn", "b-ok"}
	for i, p := range rep.Probes {
		if p.Name != order[i] {
			t.Fatalf("probe order = %+v, want %v", rep.Probes, order)
		}
	}
	out := rep.Text()
	if !strings.Contains(out, "health: crit") || !strings.Contains(out, "expired") {
		t.Fatalf("report text:\n%s", out)
	}
}

func TestHealthNil(t *testing.T) {
	if rep := NewHealthReport(nil); rep.Verdict != StatusOK {
		t.Fatal("a report of no probes must be ok")
	}
}

func TestProbeStatusJSON(t *testing.T) {
	for st, want := range map[ProbeStatus]string{
		StatusOK:   `"ok"`,
		StatusWarn: `"warn"`,
		StatusCrit: `"crit"`,
	} {
		b, err := st.MarshalJSON()
		if err != nil || string(b) != want {
			t.Fatalf("MarshalJSON(%v) = %s, %v", st, b, err)
		}
	}
}
