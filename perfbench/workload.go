package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"

	"magus/internal/campaign"
)

// Request classes. A class is one kind of operation the operator waits
// for; latency metrics are computed per class.
const (
	classPlan         = "plan"          // GET /plan
	classRunbook      = "runbook"       // GET /runbook
	classSimulate     = "simulate"      // GET /simulate
	classExecute      = "execute"       // POST /execute, polled to the end
	classCampaignHot  = "campaign.hot"  // 27-job POST /campaigns on built markets
	classCampaignCold = "campaign.cold" // 27-job POST /campaigns on a fresh market seed
	classSeason       = "waves.season"  // POST /waves with replay, polled to the end
)

// Fixed workload shape. Each workload is a closed loop over passes: a
// pass is a fixed multiset of requests whose order and parameters the
// seed draws, so every pass, and every run, sends the same mix.
const (
	windowSimPer  = 6    // /simulate requests per window-replay pass
	windowExecPer = 6    // /execute requests per window-replay pass
	simTicks      = 1440 // one day of one-minute ticks
	simNoise      = 0.02 // per-tick lognormal load jitter
	marketSectors = 117  // sectors of the suburban seed-1 market (fault targets)
	coldSeedBase  = 1000 // fresh market seeds start here; never built during set-up
	hotMarketSeed = 1    // the market seed of the daemon and the hot campaign set
	seasonClass   = "suburban"
)

var (
	scenarios = []string{"a", "b", "c"}
	methods   = []string{"power", "tilt", "joint"}
	classes   = []string{"rural", "suburban", "urban"}
)

// Request is one operation of a workload: the parameters the HTTP
// request carries, kept structured so the traced replay can call the
// same layers in-process.
type Request struct {
	Class string
	// Pass and Index place the request in the sequence: its pass and
	// its position within the pass.
	Pass     int
	Index    int
	Scenario string
	Method   string
	Fixed    bool

	// /simulate
	SimSeed   int64
	Ticks     int
	Noise     float64
	StartHour float64
	Faults    string

	// /execute
	Exec *campaign.ExecSpec

	// /campaigns
	Jobs []JobRequest

	// /waves
	MarketSeed int64
	AnnealSeed int64
	Wave       *campaign.WaveSpec
}

// JobRequest is one job of a POST /campaigns body.
type JobRequest struct {
	Class    string `json:"class"`
	Seed     int64  `json:"seed"`
	Scenario string `json:"scenario"`
	Method   string `json:"method"`
}

// Workload is a named, seeded request generator (README.md says why
// each exists).
type Workload struct {
	Name string
	// Clients is the closed-loop concurrency.
	Clients int
	// PassSeconds is the nominal time of one pass on the reference
	// machine (2 CPUs): a run of S seconds sends round(S/PassSeconds)
	// passes, so its request count follows from its arguments alone and
	// every run with the same arguments sends the same mix.
	PassSeconds float64
	// Pass returns pass p of the request sequence for a seed.
	Pass func(seed int64, p int) []Request
}

var workloads = []Workload{
	{
		Name:        "plan-interactive",
		Clients:     2,
		PassSeconds: 2.3,
		Pass:        planPass,
	},
	{
		Name:        "window-replay",
		Clients:     2,
		PassSeconds: 0.3,
		Pass:        windowPass,
	},
	{
		Name:        "season-batch",
		Clients:     1,
		PassSeconds: 6.4,
		Pass:        seasonPass,
	},
}

func workloadByName(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// passes is the number of passes a run of the given length sends.
func (w Workload) passes(seconds float64) int {
	return max(1, int(math.Round(seconds/w.PassSeconds)))
}

// passRand derives the private generator of one pass, so pass p of a
// seed is the same whichever passes ran before it.
func passRand(seed int64, p int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(p)*7919 + 17))
}

// planPass is one plan-interactive pass: for each of the 9 scenario x
// method pairs, /plan twice (one with fixed=1) and /runbook twice, in
// seeded order. A quarter of the requests carry fixed=1.
func planPass(seed int64, p int) []Request {
	rng := passRand(seed, p)
	var out []Request
	for _, sc := range scenarios {
		for _, m := range methods {
			out = append(out,
				Request{Class: classPlan, Pass: p, Scenario: sc, Method: m},
				Request{Class: classPlan, Pass: p, Scenario: sc, Method: m, Fixed: true},
				Request{Class: classRunbook, Pass: p, Scenario: sc, Method: m},
				Request{Class: classRunbook, Pass: p, Scenario: sc, Method: m},
			)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// windowPass is one window-replay pass: /simulate and /execute
// alternate. Each /simulate replays a tilt plan through a day of ticks
// with load noise, a sector outage and a load surge; each /execute runs
// a tilt plan through the journaled executor with seeded
// delivery faults and millisecond retry backoff. One /execute per pass
// carries a sustained KPI breach, which must end rolled-back.
func windowPass(seed int64, p int) []Request {
	rng := passRand(seed, p)
	sims := make([]Request, windowSimPer)
	for i := range sims {
		down := 60 + rng.Intn(simTicks/2)
		surge := 60 + rng.Intn(simTicks/2)
		sims[i] = Request{
			Class:     classSimulate,
			Pass:      p,
			Scenario:  scenarios[i%len(scenarios)],
			Method:    "tilt",
			SimSeed:   rng.Int63n(1 << 30),
			Ticks:     simTicks,
			Noise:     simNoise,
			StartHour: float64(rng.Intn(24)),
			Faults: fmt.Sprintf("sector-down@%d:%d,surge@%d+%d:%d:x%.1f",
				down, rng.Intn(marketSectors), surge, 60+rng.Intn(120), rng.Intn(marketSectors), 1.5+rng.Float64()),
		}
	}
	execs := make([]Request, windowExecPer)
	breaker := rng.Intn(windowExecPer)
	for i := range execs {
		chaos := fmt.Sprintf("push-error@%dx%d,kpi-loss@%dx1", 1+rng.Intn(2), 1+rng.Intn(2), 1+rng.Intn(3))
		if i == breaker {
			chaos += ",kpi-breach@2"
		}
		execs[i] = Request{
			Class:    classExecute,
			Pass:     p,
			Scenario: scenarios[i%len(scenarios)],
			Method:   "tilt",
			Exec: &campaign.ExecSpec{
				Seed:           rng.Int63n(1 << 30),
				Chaos:          chaos,
				Diurnal:        true,
				LoadNoise:      simNoise,
				RetryBackoffMS: 1,
				ExecSeed:       rng.Int63n(1 << 30),
			},
		}
	}
	rng.Shuffle(len(sims), func(i, j int) { sims[i], sims[j] = sims[j], sims[i] })
	rng.Shuffle(len(execs), func(i, j int) { execs[i], execs[j] = execs[j], execs[i] })
	out := make([]Request, 0, len(sims)+len(execs))
	for i := range sims {
		out = append(out, sims[i], execs[i])
	}
	return out
}

// seasonPass is one season-batch pass: a hot campaign (markets built
// during set-up), a cold campaign (market seed coldSeedBase+p, which no
// earlier pass or set-up built), then one replayed season on the
// daemon's market. The seed picks the season's anneal seed. The cold
// markets and the job order are the same in every run: a campaign's
// makespan depends on when each market's build starts, so a seeded
// job order would make the campaign figures vary with the seed.
func seasonPass(seed int64, p int) []Request {
	rng := passRand(seed, p)
	cold := coldSeedBase + int64(p)
	return []Request{
		{Class: classCampaignHot, Pass: p, Jobs: campaignJobs(hotMarketSeed)},
		{Class: classCampaignCold, Pass: p, Jobs: campaignJobs(cold)},
		{
			Class:      classSeason,
			Pass:       p,
			MarketSeed: hotMarketSeed,
			Method:     "tilt",
			AnnealSeed: 1 + rng.Int63n(1<<20),
			Wave:       &campaign.WaveSpec{Replay: true},
		},
	}
}

// campaignJobs is the 27-job set rural/suburban/urban x a/b/c x
// power/tilt/joint on one market seed, in the order magusctl campaign
// submits it.
func campaignJobs(marketSeed int64) []JobRequest {
	var jobs []JobRequest
	for _, c := range classes {
		for _, sc := range scenarios {
			for _, m := range methods {
				jobs = append(jobs, JobRequest{Class: c, Seed: marketSeed, Scenario: sc, Method: m})
			}
		}
	}
	return jobs
}

// Kind names the request's kind: its class and, for the synchronous
// endpoints and executions, the scenario, method and fixed-point flag.
// Requests of one kind do the same work.
func (r Request) Kind() string {
	k := r.Class
	if r.Scenario != "" {
		k += "/" + r.Scenario + "/" + r.Method
	}
	if r.Fixed {
		k += "/fixed"
	}
	return k
}

// HTTP renders the request as the method, path and body magusd sees.
func (r Request) HTTP() (method, path string, body []byte) {
	switch r.Class {
	case classPlan, classRunbook, classSimulate:
		q := url.Values{}
		q.Set("scenario", r.Scenario)
		q.Set("method", r.Method)
		if r.Fixed {
			q.Set("fixed", "1")
		}
		if r.Class == classSimulate {
			q.Set("ticks", fmt.Sprint(r.Ticks))
			q.Set("sim_seed", fmt.Sprint(r.SimSeed))
			q.Set("noise", fmt.Sprint(r.Noise))
			q.Set("start_hour", fmt.Sprint(r.StartHour))
			q.Set("diurnal", "1")
			q.Set("faults", r.Faults)
		}
		return "GET", "/" + r.Class + "?" + q.Encode(), nil
	case classExecute:
		return "POST", "/execute", mustJSON(map[string]any{
			"scenario": r.Scenario, "method": r.Method, "fixed_point": r.Fixed, "exec": r.Exec,
		})
	case classCampaignHot, classCampaignCold:
		return "POST", "/campaigns", mustJSON(map[string]any{"jobs": r.Jobs})
	case classSeason:
		return "POST", "/waves", mustJSON(map[string]any{
			"class": seasonClass, "seed": r.MarketSeed, "method": r.Method,
			"anneal_seed": r.AnnealSeed, "wave": r.Wave,
		})
	}
	panic("perfbench: unknown request class " + r.Class)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps are encoded
	}
	return b
}

// encodeSequence renders passes [0, n) of a workload as one line per
// request (method, path, body): the exact bytes the daemon receives.
func encodeSequence(w Workload, seed int64, n int) []byte {
	var buf bytes.Buffer
	for p := 0; p < n; p++ {
		for _, r := range w.Pass(seed, p) {
			m, path, body := r.HTTP()
			fmt.Fprintf(&buf, "%s %s %s\n", m, path, body)
		}
	}
	return buf.Bytes()
}
