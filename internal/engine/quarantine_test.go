package engine

import (
	"strings"
	"testing"
	"time"

	"dbtoaster/internal/runtime"
	"dbtoaster/internal/schema"
	"dbtoaster/internal/stream"
	"dbtoaster/internal/types"
)

// installLive runs the full Begin → compile → Install pipeline for one
// query, as the server does.
func installLive(t *testing.T, r *Registry, name, src string) {
	t.Helper()
	installOver(t, r, testCatalog(), name, src)
}

func installOver(t *testing.T, r *Registry, cat *schema.Catalog, name, src string) {
	t.Helper()
	if err := r.Begin(name, src); err != nil {
		t.Fatalf("Begin(%q): %v", name, err)
	}
	q, err := Prepare(src, cat)
	if err != nil {
		t.Fatalf("Prepare(%q): %v", src, err)
	}
	tmp, err := NewToaster(q, runtime.Options{NoMetrics: true})
	if err != nil {
		t.Fatalf("NewToaster(%q): %v", src, err)
	}
	if _, err := r.Install(name, q, tmp, 0, runtime.Options{}); err != nil {
		t.Fatalf("Install(%q): %v", name, err)
	}
}

func infoOf(t *testing.T, r *Registry, name string) QueryInfo {
	t.Helper()
	for _, info := range r.Infos() {
		if info.Name == name {
			return info
		}
	}
	t.Fatalf("query %q not in registry", name)
	return QueryInfo{}
}

func insRB(rel string, a, b int64) stream.Event {
	return stream.Event{Op: stream.Insert, Relation: rel,
		Args: types.Tuple{types.NewInt(a), types.NewInt(b)}}
}

func TestQuarantinePanicIsolation(t *testing.T) {
	r := NewRegistry(true)
	installLive(t, r, "qr", "select B, sum(A) from R group by B")
	installLive(t, r, "qs", "select sum(C) from S")

	for i := int64(0); i < 5; i++ {
		if err := r.OnEvent(insRB("R", i, 1)); err != nil {
			t.Fatal(err)
		}
		if err := r.OnEvent(insRB("S", 1, i)); err != nil {
			t.Fatal(err)
		}
	}

	runtime.SetChaosPanic("S", 0)
	defer runtime.ClearChaos()
	// The panic is contained: the producer's request still succeeds (the
	// event reached every healthy engine), the offender is quarantined.
	if err := r.OnEvent(insRB("S", 1, 100)); err != nil {
		t.Fatalf("panic surfaced to producer: %v", err)
	}
	info := infoOf(t, r, "qs")
	if info.State != StateQuarantined {
		t.Fatalf("qs state = %v, want quarantined", info.State)
	}
	if !strings.Contains(info.Reason, "trigger panic") {
		t.Fatalf("qs reason = %q, want trigger panic", info.Reason)
	}
	if _, ok := r.Get("qs"); ok {
		t.Fatal("quarantined query still returned by Get")
	}

	// The healthy tenant keeps applying; quarantined-relation events are
	// accepted and simply skip the dead engine.
	if err := r.OnEvent(insRB("R", 7, 2)); err != nil {
		t.Fatal(err)
	}
	if err := r.OnEvent(insRB("S", 1, 1)); err != nil {
		t.Fatal(err)
	}
	if st := infoOf(t, r, "qr").State; st != StateLive {
		t.Fatalf("healthy query state = %v, want live", st)
	}
	eng, _ := r.Get("qr")
	res, err := eng.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("healthy query rows = %d, want 2", len(res.Rows))
	}

	// Revive: a fresh REGISTER under the quarantined name goes live again.
	runtime.ClearChaos()
	installLive(t, r, "qs", "select sum(C) from S")
	if st := infoOf(t, r, "qs").State; st != StateLive {
		t.Fatalf("revived query state = %v, want live", st)
	}
}

func TestQuarantineReviveAbortRestoresEntry(t *testing.T) {
	r := NewRegistry(true)
	installLive(t, r, "qr", "select B, sum(A) from R group by B")
	installLive(t, r, "qs", "select sum(C) from S")
	runtime.SetChaosPanic("S", 0)
	defer runtime.ClearChaos()
	if err := r.OnEvent(insRB("S", 1, 1)); err != nil {
		t.Fatal(err)
	}
	reason := infoOf(t, r, "qs").Reason

	// A revive that fails keeps the quarantined entry (and its reason).
	if err := r.Begin("qs", "select sum(C) from S"); err != nil {
		t.Fatal(err)
	}
	r.Abort("qs")
	info := infoOf(t, r, "qs")
	if info.State != StateQuarantined || info.Reason != reason {
		t.Fatalf("aborted revive lost the quarantined entry: %+v", info)
	}

	// Remove on a quarantined entry is pure bookkeeping.
	if err := r.Remove("qs"); err != nil {
		t.Fatal(err)
	}
	for _, i := range r.Infos() {
		if i.Name == "qs" {
			t.Fatal("removed quarantined entry still listed")
		}
	}
}

// TestQuarantineSizeQuotas covers both size limits; the byte limit is 8
// entries of a packed int1 map as Map.ApproxBytes lays them out (key +
// value + primary cell = 38 B each).
func TestQuarantineSizeQuotas(t *testing.T) {
	for _, tc := range []struct {
		quota  Quota
		reason string
	}{
		{Quota{MaxEntries: 8}, "map-entries"},
		{Quota{MaxBytes: 8 * 38}, "map-bytes"},
	} {
		r := NewRegistry(true)
		r.SetQuota(tc.quota)
		installLive(t, r, "qbig", "select B, sum(A) from R group by B")
		installLive(t, r, "qsmall", "select sum(C) from S")

		for i := int64(0); i < 16; i++ {
			if err := r.OnEvent(insRB("R", 1, i)); err != nil {
				t.Fatal(err)
			}
		}
		info := infoOf(t, r, "qbig")
		if info.State != StateQuarantined {
			t.Fatalf("qbig state = %v, want quarantined", info.State)
		}
		if !strings.Contains(info.Reason, tc.reason) {
			t.Fatalf("qbig reason = %q, want %s breach", info.Reason, tc.reason)
		}
		if st := infoOf(t, r, "qsmall").State; st != StateLive {
			t.Fatalf("qsmall state = %v, want live", st)
		}
		if err := r.OnEvent(insRB("S", 1, 2)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestQuarantineTriggerBudget(t *testing.T) {
	r := NewRegistry(true)
	r.SetQuota(Quota{TriggerBudget: time.Millisecond, BudgetBreaches: 2})
	installLive(t, r, "qslow", "select B, sum(A) from R group by B")
	installLive(t, r, "qfast", "select sum(C) from S")

	runtime.SetChaosDelay("R", 20*time.Millisecond)
	defer runtime.ClearChaos()
	for i := int64(0); i < 2; i++ {
		if err := r.OnEvent(insRB("R", i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	info := infoOf(t, r, "qslow")
	if info.State != StateQuarantined {
		t.Fatalf("qslow state = %v, want quarantined", info.State)
	}
	if !strings.Contains(info.Reason, "trigger-budget") {
		t.Fatalf("qslow reason = %q, want trigger-budget breach", info.Reason)
	}
	if st := infoOf(t, r, "qfast").State; st != StateLive {
		t.Fatalf("qfast state = %v, want live", st)
	}
}

func TestQuarantineBudgetEnforcementToggle(t *testing.T) {
	r := NewRegistry(true)
	r.SetQuota(Quota{TriggerBudget: time.Millisecond, BudgetBreaches: 1})
	r.SetBudgetEnforcement(false)
	installLive(t, r, "qslow", "select B, sum(A) from R group by B")

	runtime.SetChaosDelay("R", 10*time.Millisecond)
	defer runtime.ClearChaos()
	for i := int64(0); i < 3; i++ {
		if err := r.OnEvent(insRB("R", i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if st := infoOf(t, r, "qslow").State; st != StateLive {
		t.Fatalf("with enforcement off, state = %v, want live", st)
	}
}

// TestQuarantineSharedMapPromotion: a non-corrupt demotion (quota breach)
// hands the breacher's owned shared maps to their oldest borrower, exactly
// like Remove — the borrower keeps serving correct results.
func TestQuarantineSharedMapPromotion(t *testing.T) {
	const src = "select B, sum(A) from R group by B"
	r := NewRegistry(true)
	installLive(t, r, "owner", src)
	installLive(t, r, "borrower", src)
	if len(infoOf(t, r, "borrower").Shared) == 0 {
		t.Fatal("borrower adopted nothing; sharing precondition broken")
	}
	r.SetQuota(Quota{MaxEntries: 6})

	// Feed until the owner breaches, then stop: the promoted borrower now
	// owns the maps, so further growth would (correctly) demote it too.
	var fed []stream.Event
	for i := int64(0); i < 8 && infoOf(t, r, "owner").State == StateLive; i++ {
		ev := insRB("R", i+1, i)
		fed = append(fed, ev)
		if err := r.OnEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if st := infoOf(t, r, "owner").State; st != StateQuarantined {
		t.Fatalf("owner state = %v, want quarantined", st)
	}
	if st := infoOf(t, r, "borrower").State; st != StateLive {
		t.Fatalf("borrower state = %v, want live", st)
	}
	for sig, pi := range r.Pool() {
		if pi.Owner != "borrower" {
			t.Fatalf("pool sig %q owner = %q, want borrower", sig, pi.Owner)
		}
	}

	// The promoted borrower answers over the full prefix.
	twinQ, err := Prepare(src, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewToaster(twinQ, runtime.Options{NoMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range fed {
		if err := twin.OnEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	eng, _ := r.Get("borrower")
	got, err := eng.Results()
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("promoted borrower rows = %d, want %d", len(got.Rows), len(want.Rows))
	}
}

// TestQuarantineCorruptPanicTearsSharing: both queries fire on the
// panicking relation, so the pass collects both; the owner's demotion is
// corrupt, which deletes the pooled maps instead of promoting them.
func TestQuarantineCorruptPanicTearsSharing(t *testing.T) {
	const src = "select B, sum(A) from R group by B"
	r := NewRegistry(true)
	installLive(t, r, "owner", src)
	installLive(t, r, "borrower", src)

	runtime.SetChaosPanic("R", 0)
	defer runtime.ClearChaos()
	if err := r.OnEvent(insRB("R", 1, 1)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"owner", "borrower"} {
		if st := infoOf(t, r, name).State; st != StateQuarantined {
			t.Fatalf("%s state = %v, want quarantined", name, st)
		}
	}
	if n := len(r.Pool()); n != 0 {
		t.Fatalf("pool still holds %d entries after corrupt demotion", n)
	}
}
