package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// Outcome is one finished request of the closed loop.
type Outcome struct {
	Req     Request
	Latency time.Duration
	Facts   Facts
	Err     error
}

// Poll intervals for the asynchronous endpoints. A client learns that a
// run finished at its next poll, so the interval bounds the rounding
// of the measured latency; each is under 1% of the operation it polls.
const (
	pollExecute  = 1 * time.Millisecond
	pollSeason   = 5 * time.Millisecond
	pollCampaign = 10 * time.Millisecond
	replyTimeout = 150 * time.Second
)

// sequence hands out a workload's requests pass by pass to the closed
// loop's clients until the given number of passes has been sent.
type sequence struct {
	mu     sync.Mutex
	w      Workload
	seed   int64
	pass   []Request
	next   int
	passes int
	limit  int
}

func (s *sequence) take() (Request, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next == len(s.pass) {
		if s.passes == s.limit {
			return Request{}, false
		}
		s.pass = s.w.Pass(s.seed, s.passes)
		s.next = 0
		s.passes++
	}
	r := s.pass[s.next]
	r.Index = s.next
	s.next++
	return r, true
}

// closedLoop runs the workload's clients, each sending its next request
// only after the previous reply, until passes passes have been sent. It
// returns every outcome and the wall time from the first send to the
// last reply.
func closedLoop(w Workload, seed int64, passes int, do func(Request) Outcome) ([]Outcome, time.Duration) {
	seq := &sequence{w: w, seed: seed, limit: passes}
	start := time.Now()
	var mu sync.Mutex
	var out []Outcome
	var wg sync.WaitGroup
	wg.Add(w.Clients)
	for c := 0; c < w.Clients; c++ {
		go func() {
			defer wg.Done()
			for {
				r, ok := seq.take()
				if !ok {
					return
				}
				o := do(r)
				mu.Lock()
				out = append(out, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// httpClient sends requests to one daemon and checks every reply.
type httpClient struct {
	base   string
	client *http.Client
}

func newHTTPClient(base string, clients int) *httpClient {
	return &httpClient{
		base: base,
		client: &http.Client{
			Timeout:   replyTimeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: clients + 2},
		},
	}
}

func (h *httpClient) close() { h.client.CloseIdleConnections() }

// call sends one request and returns the reply body, requiring status.
func (h *httpClient) call(method, path string, body []byte, status int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: read reply: %w", method, path, err)
	}
	if resp.StatusCode != status {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// submitted is the 202 reply of the asynchronous endpoints.
type submitted struct {
	ID string `json:"id"`
}

// do sends one request, waits for its outcome (polling the asynchronous
// endpoints until they report finished) and checks the reply.
func (h *httpClient) do(r Request) Outcome {
	start := time.Now()
	facts, err := h.roundTrip(r)
	return Outcome{Req: r, Latency: time.Since(start), Facts: facts, Err: err}
}

func (h *httpClient) roundTrip(r Request) (Facts, error) {
	method, path, body := r.HTTP()
	switch r.Class {
	case classPlan, classRunbook, classSimulate:
		b, err := h.call(method, path, nil, http.StatusOK)
		if err != nil {
			return Facts{}, err
		}
		switch r.Class {
		case classPlan:
			return checkPlan(b)
		case classRunbook:
			return checkRunbook(b)
		default:
			return checkSimulate(b, r.Ticks)
		}
	case classExecute:
		id, err := h.submit(method, path, body)
		if err != nil {
			return Facts{}, err
		}
		var rep executeReply
		if err := h.poll("/execute/"+id, pollExecute, &rep, func() bool { return rep.Finished }); err != nil {
			return Facts{}, err
		}
		return checkExecute(rep)
	case classCampaignHot, classCampaignCold:
		id, err := h.submit(method, path, body)
		if err != nil {
			return Facts{}, err
		}
		var rep campaignReply
		if err := h.poll("/campaigns/"+id, pollCampaign, &rep, func() bool { return rep.Campaign.Finished }); err != nil {
			return Facts{}, err
		}
		return checkCampaign(rep.Campaign, len(r.Jobs))
	case classSeason:
		id, err := h.submit(method, path, body)
		if err != nil {
			return Facts{}, err
		}
		var rep waveReply
		if err := h.poll("/waves/"+id, pollSeason, &rep, func() bool { return rep.Finished }); err != nil {
			return Facts{}, err
		}
		return checkSeason(rep)
	}
	return Facts{}, fmt.Errorf("unknown request class %q", r.Class)
}

func (h *httpClient) submit(method, path string, body []byte) (string, error) {
	b, err := h.call(method, path, body, http.StatusAccepted)
	if err != nil {
		return "", err
	}
	var s submitted
	if err := decode(b, &s); err != nil {
		return "", err
	}
	if s.ID == "" {
		return "", fmt.Errorf("%s %s: no id in reply", method, path)
	}
	return s.ID, nil
}

// poll fetches path every interval into dst until done reports true.
func (h *httpClient) poll(path string, every time.Duration, dst any, done func() bool) error {
	deadline := time.Now().Add(replyTimeout)
	for {
		b, err := h.call("GET", path, nil, http.StatusOK)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, dst); err != nil {
			return fmt.Errorf("GET %s: decode: %w", path, err)
		}
		if done() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("GET %s: not finished after %v", path, replyTimeout)
		}
		time.Sleep(every)
	}
}
