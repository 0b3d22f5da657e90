package main

import (
	"flag"
	"testing"

	"repro/internal/campaign"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/scenario"
)

// parseFlags registers the shared campaign flags on a fresh set and
// parses args, as main does.
func parseFlags(t *testing.T, args ...string) *cliutil.CampaignFlags {
	t.Helper()
	fs := flag.NewFlagSet("campaignd", flag.ContinueOnError)
	cf := cliutil.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := cf.Validate(); err != nil {
		t.Fatal(err)
	}
	return cf
}

func signature(t *testing.T, s campaign.Spec) string {
	t.Helper()
	sig, err := s.Signature()
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

// TestServeSpecCarriesFleet: `campaignd -serve -tool sil -fleet 3` must
// coordinate the campaign `silbench -fleet 3` flies, not the single-drone
// one. The expected spec is built the way silbench's main builds it.
func TestServeSpecCarriesFleet(t *testing.T) {
	fleet, err := scenario.ParseFleet("3")
	if err != nil {
		t.Fatal(err)
	}
	silbench := campaign.Spec{
		Maps:        campaign.Range(2),
		Scenarios:   campaign.Range(3),
		Repeats:     1,
		Generations: []core.Generation{core.V1, core.V2},
		Timing:      scenario.SILTiming(),
	}
	silbench.Timing.Fleet = fleet
	silbench.Timing = silbench.Timing.Canonical()

	spec, _, err := buildSpec(parseFlags(t, "-fleet", "3"), "sil", 2, 3, 1, "1,2", 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := signature(t, spec), signature(t, silbench); got != want {
		t.Fatalf("campaignd -fleet 3 signature %s, silbench -fleet 3 %s", got, want)
	}

	solo, _, err := buildSpec(parseFlags(t), "sil", 2, 3, 1, "1,2", 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if signature(t, solo) == signature(t, spec) {
		t.Fatal("-fleet 3 did not change the campaign signature")
	}
	// -fleet 1 is the solo engine, exactly as in the tools.
	one, _, err := buildSpec(parseFlags(t, "-fleet", "1"), "sil", 2, 3, 1, "1,2", 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if signature(t, one) != signature(t, solo) {
		t.Fatal("-fleet 1 signs differently from no -fleet")
	}
}

// TestServeSpecFleetEveryTool: every tool campaignd coordinates takes
// -fleet, as each tool does locally.
func TestServeSpecFleetEveryTool(t *testing.T) {
	for _, tool := range []string{"sil", "hil-maxn", "hil-5w", "field"} {
		spec, _, err := buildSpec(parseFlags(t, "-fleet", "3:spacing=6"), tool, 1, 1, 1, "1", 4, 1)
		if err != nil {
			t.Fatalf("%s: %v", tool, err)
		}
		if f := spec.Timing.Fleet; f == nil || f.Size != 3 || f.Spacing != 6 {
			t.Errorf("%s: fleet %+v, want 3 drones at 6 m", tool, f)
		}
	}
	if _, _, err := buildSpec(parseFlags(t, "-fleet", "0"), "sil", 1, 1, 1, "1", 4, 1); err == nil {
		t.Error("-fleet 0 accepted")
	}
}
