package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/protocol"
	"repro/internal/topogen"
	"repro/internal/workload"
)

// testParams is a small family that oscillates often enough (~7% of
// seeds; cf. E22's MED-prevalence numbers) for the census statistics to
// have signal while staying fast to explore exhaustively.
var testParams = workload.Params{
	Clusters: 2, MinClients: 1, MaxClients: 2, ASes: 2,
	Exits: 4, MaxMED: 2, MaxCost: 8, ExtraLinks: 2,
}

func testJob() CensusJob {
	return CensusJob{Params: testParams, MaxStates: 1500, SampleSeeds: 2, SampleSteps: 1000}
}

func mustJSON(t *testing.T, agg *Aggregate) []byte {
	t.Helper()
	b, err := json.MarshalIndent(agg, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShardIndependence is the core determinism contract: the aggregate
// JSON must be byte-identical no matter how many workers ran the census.
func TestShardIndependence(t *testing.T) {
	var want []byte
	for _, shards := range []int{1, 3, 8} {
		agg, err := Run(context.Background(), testJob(), Config{Shards: shards, Start: 1, Seeds: 24})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got := mustJSON(t, agg)
		if want == nil {
			want = got
			if agg.Completed != 24 {
				t.Fatalf("completed = %d, want 24", agg.Completed)
			}
			if agg.ClassicOsc == 0 {
				t.Fatalf("census family produced no oscillations; statistics are vacuous:\n%s", want)
			}
			continue
		}
		if string(got) != string(want) {
			t.Errorf("shards=%d changed the aggregate:\n%s\nwant:\n%s", shards, got, want)
		}
	}
}

// cancelAfter wraps a job to cancel the campaign after n completed seeds,
// simulating a kill mid-run.
type cancelAfter struct {
	Job
	n      int64
	count  atomic.Int64
	cancel context.CancelFunc
}

func (c *cancelAfter) Run(ctx context.Context, seed int64, m *Meter) SeedResult {
	res := c.Job.Run(ctx, seed, m)
	if c.count.Add(1) == c.n {
		c.cancel()
	}
	return res
}

// TestKillAndResumeMatchesUninterrupted kills a checkpointed campaign
// partway, resumes it, and requires the final aggregate to be
// byte-identical to an uninterrupted run of the same range.
func TestKillAndResumeMatchesUninterrupted(t *testing.T) {
	const seeds = 20
	uninterrupted, err := Run(context.Background(), testJob(), Config{Shards: 2, Start: 100, Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, uninterrupted)

	ckpt := filepath.Join(t.TempDir(), "census.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killer := &cancelAfter{Job: testJob(), n: 7, cancel: cancel}
	partial, err := Run(ctx, killer, Config{
		Shards: 2, Start: 100, Seeds: seeds, Checkpoint: ckpt, FlushEvery: 1,
	})
	if err == nil {
		t.Fatal("killed campaign reported no error")
	}
	if partial == nil || partial.Completed >= seeds {
		t.Fatalf("kill did not interrupt the campaign (completed=%v)", partial)
	}

	resumed, err := Run(context.Background(), testJob(), Config{
		Shards: 2, Start: 100, Seeds: seeds, Checkpoint: ckpt, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := mustJSON(t, resumed); string(got) != string(want) {
		t.Errorf("resumed aggregate differs from uninterrupted:\n%s\nwant:\n%s", got, want)
	}
}

// TestResumeFreshCheckpoint resumes with no checkpoint file on disk: the
// campaign must simply run everything.
func TestResumeFreshCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "none.jsonl")
	agg, err := Run(context.Background(), testJob(), Config{
		Shards: 2, Start: 1, Seeds: 4, Checkpoint: ckpt, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Completed != 4 {
		t.Fatalf("completed = %d, want 4", agg.Completed)
	}
}

// TestCheckpointToleratesTornTail simulates a kill mid-write: a truncated
// final line must be skipped (and recomputed), not fail the resume.
func TestCheckpointToleratesTornTail(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "census.jsonl")
	if _, err := Run(context.Background(), testJob(), Config{
		Shards: 1, Start: 1, Seeds: 6, Checkpoint: ckpt, FlushEvery: 1,
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadCheckpoint(ckpt, 1, 6)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if len(loaded) != 5 {
		t.Fatalf("loaded %d records from torn checkpoint, want 5", len(loaded))
	}
	agg, err := Run(context.Background(), testJob(), Config{
		Shards: 2, Start: 1, Seeds: 6, Checkpoint: ckpt, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Completed != 6 {
		t.Fatalf("completed = %d, want 6", agg.Completed)
	}
}

// TestCheckpointRejectsMidfileCorruption only the *final* line may be
// torn; corruption earlier in the file must fail loudly.
func TestCheckpointRejectsMidfileCorruption(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(ckpt, []byte("{\"seed\":1\n{\"seed\":2}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadCheckpoint(ckpt, 1, 8); err == nil {
		t.Fatal("mid-file corruption not rejected")
	}
}

// TestConfigValidation covers the error paths.
func TestConfigValidation(t *testing.T) {
	if _, err := Run(context.Background(), testJob(), Config{Seeds: 0}); err == nil {
		t.Error("zero seed count accepted")
	}
	if _, err := Run(context.Background(), testJob(), Config{Seeds: 1, Resume: true}); err == nil {
		t.Error("resume without checkpoint accepted")
	}
}

// TestProgressAndMeters requires the reporter to fire and the per-worker
// counters to account for real work.
func TestProgressAndMeters(t *testing.T) {
	var reports []ProgressReport
	agg, err := Run(context.Background(), testJob(), Config{
		Shards: 2, Start: 1, Seeds: 8,
		Progress: func(p ProgressReport) { reports = append(reports, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("progress reporter never fired")
	}
	last := reports[len(reports)-1]
	if last.Done != 8 || last.Total != 8 {
		t.Errorf("final progress = %d/%d, want 8/8", last.Done, last.Total)
	}
	var seeds, states int64
	for _, w := range last.Workers {
		seeds += w.Seeds
		states += w.States
	}
	if seeds != 8 {
		t.Errorf("worker meters account for %d seeds, want 8", seeds)
	}
	if states == 0 && agg.TotalStates > 0 {
		t.Error("states explored but no worker meter recorded them")
	}
	if s := last.String(); s == "" {
		t.Error("empty progress line")
	}
}

// TestCensusExhaustiveVsSampling: with a state budget the verdicts carry
// exhaustive proofs where the space fit; stripping the budget must not
// invent convergence on seeds the exhaustive pass proved oscillatory.
func TestCensusExhaustiveVsSampling(t *testing.T) {
	exh, err := Run(context.Background(), testJob(), Config{Shards: 2, Start: 1, Seeds: 16})
	if err != nil {
		t.Fatal(err)
	}
	if exh.Exhaustive == 0 {
		t.Fatalf("no seed fit the exhaustive budget: %s", exh)
	}
	job := testJob()
	job.MaxStates = 0
	smp, err := Run(context.Background(), job, Config{Shards: 2, Start: 1, Seeds: 16})
	if err != nil {
		t.Fatal(err)
	}
	if smp.TotalStates != 0 || smp.Exhaustive != 0 {
		t.Errorf("sampling-only census claims exploration: %s", smp)
	}
	if exh.ModifiedConv != smp.ModifiedConv {
		t.Errorf("modified-convergence count differs: exhaustive %d vs sampling %d", exh.ModifiedConv, smp.ModifiedConv)
	}
}

// TestFuzzJobDeterminism runs the message-level fuzz twice and requires
// identical aggregates, including message counts.
func TestFuzzJobDeterminism(t *testing.T) {
	job := FuzzJob{Params: testParams, Policy: protocol.Classic, Schedules: 3, MaxEvents: 5000, MaxDelay: 50}
	a, err := Run(context.Background(), job, Config{Shards: 3, Start: 1, Seeds: 12})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), job, Config{Shards: 1, Start: 1, Seeds: 12})
	if err != nil {
		t.Fatal(err)
	}
	ja, jb := mustJSON(t, a), mustJSON(t, b)
	if string(ja) != string(jb) {
		t.Errorf("fuzz aggregate not deterministic:\n%s\nvs\n%s", ja, jb)
	}
	if a.Schedules != 12*3 || a.Messages == 0 {
		t.Errorf("fuzz statistics implausible: %s", a)
	}
}

// TestChaosJobShardAndWorkerIndependence: the chaos aggregate must be
// byte-identical no matter the shard count — fault fates are hashed from
// the plan seed, never drawn from shared RNG state, so the whole record is
// a function of the seed range.
func TestChaosJobShardAndWorkerIndependence(t *testing.T) {
	job := ChaosJob{Params: testParams, Plans: 2, MaxEvents: 50000}
	var want *Aggregate
	var wantJSON []byte
	for _, shards := range []int{1, 4} {
		agg, err := Run(context.Background(), job, Config{Shards: shards, Start: 1, Seeds: 10})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got := mustJSON(t, agg)
		if wantJSON == nil {
			want, wantJSON = agg, got
			continue
		}
		if string(got) != string(wantJSON) {
			t.Errorf("shards=%d changed the chaos aggregate:\n%s\nwant:\n%s", shards, got, wantJSON)
		}
	}
	if want.ChaosPlans == 0 || want.Messages == 0 {
		t.Fatalf("chaos campaign did no work: %s", want)
	}
	// The invariant itself: every plan on every convergent seed reconverged
	// loop-free with a closed ledger. Generator rejects surface as Err
	// records, never as invariant violations.
	if want.ChaosViolations != 0 || want.LedgerBroken != 0 {
		t.Fatalf("chaos invariants violated: %s (examples %v)", want, want.ChaosExamples)
	}
	if want.Reconverged != want.ChaosPlans || want.LoopFree != want.ChaosPlans {
		t.Fatalf("plans=%d reconverged=%d loopfree=%d", want.ChaosPlans, want.Reconverged, want.LoopFree)
	}
}

// TestFig13JobSmoke classifies a few crossed-family draws; the known
// counterexample seed must be flagged (cf. the pinned figures.Fig13 seed).
func TestFig13JobSmoke(t *testing.T) {
	job := Fig13Job{Spec: workload.CrossedSpec{Clusters: 4, TwoClientOn: 0, ASes: 2, MaxMED: 2, DottedProb: 0.5}}
	agg, err := Run(context.Background(), job, Config{Shards: 2, Start: 8903, Seeds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Completed != 4 {
		t.Fatalf("completed = %d, want 4", agg.Completed)
	}
	if agg.Fig13 == 0 {
		t.Errorf("seed range around the pinned counterexample found no fig13-like instance: %s", agg)
	}
}

// TestFig13JobExhaustive: the ibgpcensus Figure 13 hunt proves its pinned
// hit. Seed 8905 is Fig13-like by sampling; a 4000-state budget truncates
// the confirming search, 200000 states complete it.
func TestFig13JobExhaustive(t *testing.T) {
	spec := workload.CrossedSpec{Clusters: 4, TwoClientOn: 0, ASes: 2, MaxMED: 2, DottedProb: 0.5}
	for _, tc := range []struct {
		budget     int
		exhaustive bool
	}{{4000, false}, {200000, true}} {
		r := Fig13Job{Spec: spec, ExhaustiveBudget: tc.budget}.Run(context.Background(), 8905, &Meter{})
		if !r.Fig13Like || r.Exhaustive != tc.exhaustive {
			t.Errorf("budget %d: fig13-like %v, exhaustive %v (want true, %v)",
				tc.budget, r.Fig13Like, r.Exhaustive, tc.exhaustive)
		}
	}
}

// TestDescribeRendersFilledJob: an aggregate header names what ran — the
// chaos job's coerced policy and default fault mix, not the zero values —
// while the census header keeps its pinned form.
func TestDescribeRendersFilledJob(t *testing.T) {
	chaos := ChaosJob{Params: testParams, Plans: 2}.Describe()
	for _, want := range []string{"policy=modified", "plans=2", "Drop:0.1 ", "Resets:2 ", "Horizon:500"} {
		if !strings.Contains(chaos, want) {
			t.Errorf("chaos header %q lacks %q", chaos, want)
		}
	}
	if scale := (ScaleJob{Spec: topogen.Small()}).Describe(); !strings.Contains(scale, "policy=modified") || !strings.Contains(scale, "rounds=3") {
		t.Errorf("scale header %q does not describe the filled job", scale)
	}
	census := CensusJob{Params: testParams, MaxStates: 4000}
	if got, want := census.Describe(), fmt.Sprintf("%+v maxStates=4000", testParams); got != want {
		t.Errorf("census header %q, want %q", got, want)
	}
}

// TestScaleJobGradesEverySoak: the scale job's warm-up, churn rounds and
// chaos plan all go through churn's grader over the overlay domain, and
// all of them hold.
func TestScaleJobGradesEverySoak(t *testing.T) {
	spec := topogen.Small()
	spec.Prefixes = 4
	job := ScaleJob{Spec: spec, Rounds: 2, Plans: 1}
	agg, err := Run(context.Background(), job, Config{Shards: 2, Start: 1, Seeds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Errors != 0 || agg.ChaosViolations != 0 {
		t.Fatalf("scale invariants violated: %s (examples %v)", agg, agg.ChaosExamples)
	}
	if agg.Quiesced != 3*(1+2+1) || agg.ChaosPlans != 3 || agg.Reconverged != 3 || agg.LoopFree != 3 {
		t.Fatalf("scale statistics implausible: %s", agg)
	}
}

// TestGeneratorRejectsBecomeErrRecords: a job over an invalid family
// reports per-seed errors, not a campaign failure.
func TestGeneratorRejectsBecomeErrRecords(t *testing.T) {
	job := CensusJob{Params: workload.Params{Clusters: 0}}
	agg, err := Run(context.Background(), job, Config{Shards: 2, Start: 1, Seeds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Errors != 5 || agg.Completed != 5 {
		t.Errorf("errors = %d completed = %d, want 5/5", agg.Errors, agg.Completed)
	}
}
