package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"magus/internal/campaign"
	"magus/internal/core"
	"magus/internal/experiments"
	"magus/internal/httpapi"
	"magus/internal/journal"
	"magus/internal/topology"
)

// classByName maps wire class names to area classes.
var classByName = map[string]topology.AreaClass{
	"rural": topology.Rural, "suburban": topology.Suburban, "urban": topology.Urban,
}

// buildEngine builds a market exactly as magusd does
// (experiments.BuildEngine with the default area spec) but without the
// process-wide engine cache, so every set-up pays its own build.
func buildEngine(class topology.AreaClass, seed int64) (*core.Engine, error) {
	spec := experiments.DefaultAreaSpec(class)
	return core.NewEngine(core.SetupConfig{
		Seed:          seed,
		Class:         spec.Class,
		RegionSpanM:   spec.RegionSpanM,
		CellSizeM:     spec.CellSizeM,
		EqualizeSteps: 300,
	})
}

// daemon is one in-process magusd: the API handler behind a loopback
// listener, with its own engine cache, campaign journal and executor
// journal directory under dir.
type daemon struct {
	engine *core.Engine
	cache  *campaign.EngineCache
	orch   *campaign.Orchestrator
	api    *httpapi.Server
	srv    *http.Server
	jr     *journal.Journal
	dir    string
	base   string
	served chan error
}

// startDaemon builds the daemon's suburban seed-1 market (and, with
// hot, the rural and urban seed-1 markets for the campaign cache),
// starts serving on 127.0.0.1:0 and returns once /healthz answers.
func startDaemon(dir string, hot bool) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, cache: campaign.NewEngineCache(8), served: make(chan error, 1)}

	// The daemon's market and the hot campaign markets build in
	// parallel, as magusd's cache would build them for concurrent jobs.
	var wg sync.WaitGroup
	var firstErr error
	var mu sync.Mutex
	build := func(class topology.AreaClass) {
		defer wg.Done()
		e, err := d.cache.GetOrBuild(cacheKey(class, hotMarketSeed), func() (*core.Engine, error) {
			return buildEngine(class, hotMarketSeed)
		})
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if class == topology.Suburban {
			d.engine = e
		}
	}
	wg.Add(1)
	go build(topology.Suburban)
	if hot {
		wg.Add(2)
		go build(topology.Rural)
		go build(topology.Urban)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, fmt.Errorf("build market: %w", firstErr)
	}

	var err error
	d.jr, err = journal.Open(filepath.Join(dir, "campaigns.wal"), journal.Options{})
	if err != nil {
		return nil, err
	}
	d.orch, err = campaign.New(campaign.Config{
		Build: func(_ context.Context, class topology.AreaClass, seed int64) (*core.Engine, error) {
			return d.cache.GetOrBuild(cacheKey(class, seed), func() (*core.Engine, error) {
				return buildEngine(class, seed)
			})
		},
		Cache:   d.cache,
		Journal: d.jr,
	})
	if err != nil {
		d.jr.Close()
		return nil, err
	}
	d.api = httpapi.New(d.engine, httpapi.Options{Orchestrator: d.orch, ExecDir: filepath.Join(dir, "exec")})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.orch.Close()
		d.jr.Close()
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.srv = &http.Server{Handler: d.api, ReadHeaderTimeout: 5 * time.Second}
	go func() { d.served <- d.srv.Serve(ln) }()
	if err := d.waitHealthy(); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// cacheKey keys a default-spec market the way experiments.EngineKey does.
func cacheKey(class topology.AreaClass, seed int64) campaign.EngineKey {
	return experiments.EngineKey(seed, experiments.DefaultAreaSpec(class))
}

func (d *daemon) waitHealthy() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not healthy: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close stops serving, the campaign pool and the journal, and removes
// the daemon's files.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.api.Close()
	if jerr := d.jr.Close(); jerr != nil && err == nil {
		err = jerr
	}
	if rerr := os.RemoveAll(d.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}
