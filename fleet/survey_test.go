package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// surveyPin is one fleet survey pinned by value: Run's headline counts and
// the SHA-256 of its whole Result's JSON, and the SHA-256 of a 20-trial
// Replicate's seven survey summaries.
type surveyPin struct {
	name string
	cfg  Config
	job  Job

	tasksCompleted, tasksLeft, interrupts int
	work                                  float64
	runSHA, replicateSHA                  string
}

// surveyPins are the Private-pool and empty-job surveys, every station
// playing out all of its opportunities, recorded by value. Each pin must
// hold at any Workers setting.
func surveyPins() []surveyPin {
	private := Config{Stations: 12, Setup: 5, Opportunities: 5, Pool: Private, Seed: 7}
	checkpointed := private
	checkpointed.Checkpoint, checkpointed.CheckpointSaveCost, checkpointed.CheckpointRestartCost = 2, 0.5, 1
	adaptive := private
	adaptive.CheckpointAdaptive, adaptive.Policy = true, Policy{Name: "guideline"}
	owners := private
	owners.Owners = []Owner{Office{MeanIdle: 1800, Interrupts: 3}, Malicious{Base: Laptop{MeanIdle: 600}}}
	owners.Policy = Policy{Name: "nonadaptive"}
	undrained := private
	undrained.Stations, undrained.Checkpoint = 20, 3
	empty := Config{Stations: 8, Setup: 5, Opportunities: 4, Seed: 6}
	emptyShared, emptyPrivate, emptyClustered := empty, empty, empty
	emptyShared.Pool, emptyPrivate.Pool = Shared, Private
	emptyClustered.Clusters, emptyClustered.StealLatency = 2, 10

	job := Job{Tasks: FixedTasks(900, 25)}
	const emptyRun, emptyReplicate = "48ec08b6213621ffd8754402fd6656c5a9f22f5fc55fdf60183ccd902b4c06b2", "d4c8a8e067e162ab88469efd0577df89cf9a708f474cffb223e1174eaa857c17"
	return []surveyPin{
		{"private", private, job, 783, 117, 43, 67241.35,
			"0fc9673c18ca7a01d7f2be0ab4dfdb80c0c31ea1352b68570e6468998716b4f1", "510e2069c04e325691c4c68a687ae77831451e04370f81526a256a2c52cc1ee3"},
		{"private checkpointed", checkpointed, job, 761, 139, 43, 54683.35,
			"1b9db01cd5c83d1b671ec0408fa253919fe3e51629245948c98d8d3beac561a5", "a651a77ee44648bb35f57a8698f1b49f8d9021432438d558b22cd9c9129566b8"},
		{"private adaptive guideline", adaptive, job, 774, 126, 43, 65327.299999999996,
			"843e64f6b82de9076e752fe37e458eac21dccdb85a44d7e94537ae72522f5612", "bd3fd5fecf2c44a70deb6221aaa95513df400ab8a395a7e8b65808ff893d63ff"},
		{"private office/malicious nonadaptive", owners, job, 846, 54, 79, 70500.05,
			"346b19b2e8b23e09b4c897647df15100ae4ce7952f5333d0ac206955af3d5bc2", "d7417c42876e8ad0ce9ae7e363d0f5444985f0e9ffcdd83ba1ff29605098bb41"},
		{"private drained", private, Job{Tasks: FixedTasks(36, 5)}, 36, 0, 43, 67241.35,
			"ca9a10f86c543a1e04c9c7ead713e7710cf1e34bf4111812ee8a5945f43460fd", "d47df1af4565c004ad1322162f1004351e25054655e4bcd08ddbfbab695371ef"},
		{"private undrained", undrained, Job{Tasks: FixedTasks(40000, 10)}, 3547, 36453, 77, 42663,
			"5ace779306472a0012efbacbc08fdf1c2c79e3b80c019136971d2357eafe3743", "cd006eca6bab3ae72f214b4cfd93ae0758b1bb59a32427475932cface1f4c3ee"},
		{"empty sharded", empty, Job{}, 0, 0, 29, 28054.25, emptyRun, emptyReplicate},
		{"empty shared", emptyShared, Job{}, 0, 0, 29, 28054.25, emptyRun, emptyReplicate},
		{"empty private", emptyPrivate, Job{}, 0, 0, 29, 28054.25, emptyRun, emptyReplicate},
		{"empty clustered", emptyClustered, Job{}, 0, 0, 29, 28054.25, emptyRun, emptyReplicate},
	}
}

// digest is the hex SHA-256 of v's encoding/json bytes.
func digest(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// surveySummaries are the Replication fields a survey has always filled.
type surveySummaries struct {
	TasksCompleted, TaskWork, Work, Lifespan, Utilization, Killed, Interrupts Summary
}

// TestSurveyPinnedValues pins every survey by value at Workers 1 and 8.
func TestSurveyPinnedValues(t *testing.T) {
	ctx := context.Background()
	for _, pin := range surveyPins() {
		for _, workers := range []int{1, 8} {
			cfg := pin.cfg
			cfg.Workers = workers
			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := f.Run(ctx, pin.job)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := f.Replicate(ctx, pin.job, 20)
			if err != nil {
				t.Fatal(err)
			}
			got := surveyPin{
				tasksCompleted: res.TasksCompleted,
				tasksLeft:      res.TasksLeft,
				interrupts:     res.Interrupts,
				work:           res.Work,
				runSHA:         digest(t, res),
				replicateSHA: digest(t, surveySummaries{
					rep.TasksCompleted, rep.TaskWork, rep.Work, rep.Lifespan, rep.Utilization, rep.Killed, rep.Interrupts,
				}),
			}
			if got.tasksCompleted != pin.tasksCompleted || got.tasksLeft != pin.tasksLeft ||
				got.interrupts != pin.interrupts || got.work != pin.work ||
				got.runSHA != pin.runSHA || got.replicateSHA != pin.replicateSHA {
				t.Errorf("%s, workers %d: got tasksCompleted: %d, tasksLeft: %d, interrupts: %d, work: %v, runSHA: %q, replicateSHA: %q",
					pin.name, workers, got.tasksCompleted, got.tasksLeft, got.interrupts, got.work, got.runSHA, got.replicateSHA)
			}
		}
	}
}
