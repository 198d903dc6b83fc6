package httpapi

import (
	"bytes"
	"net/http"
	"reflect"
	"testing"
	"time"
)

// TestRetiredFixedParamIgnored: ?fixed= selected a scoring kernel that
// no longer exists. Clients still send it, so its old values are
// accepted and change nothing: every reply is byte-identical to the
// reply without it. Any other value is still the client's error.
func TestRetiredFixedParamIgnored(t *testing.T) {
	s, _ := campaignServer(t)
	for _, ep := range []string{"/plan", "/runbook"} {
		for _, sc := range []string{"a", "b", "c"} {
			for _, m := range []string{"power", "tilt", "joint"} {
				path := ep + "?scenario=" + sc + "&method=" + m
				want := get(t, s, path)
				if want.Code != http.StatusOK {
					t.Fatalf("%s: %d %s", path, want.Code, want.Body.String())
				}
				for _, v := range []string{"1", "true", "0", "false"} {
					got := get(t, s, path+"&fixed="+v)
					if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
						t.Fatalf("%s&fixed=%s: %d, reply differs from the reply without it", path, v, got.Code)
					}
				}
			}
		}
	}
	for _, path := range []string{
		"/plan?scenario=a&fixed=bogus",
		"/runbook?scenario=a&fixed=2",
		"/simulate?scenario=a&fixed=yes",
	} {
		if rec := get(t, s, path); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, rec.Code)
		}
	}
}

// TestRetiredFixedPointBodyField: "fixed_point" in a /campaigns,
// /execute or /waves body is still accepted (these bodies refuse
// unknown fields) and ignored: a campaign job carrying it plans exactly
// what the same job without it plans.
func TestRetiredFixedPointBodyField(t *testing.T) {
	s, _ := campaignServer(t)
	rec := post(t, s, "/campaigns", `{"jobs":[
		{"class":"urban","seed":1,"scenario":"c","method":"joint","fixed_point":true},
		{"class":"urban","seed":1,"scenario":"c","method":"joint"},
		{"class":"suburban","seed":1,"scenario":"c","method":"tilt","fixed_point":true},
		{"class":"suburban","seed":1,"scenario":"c","method":"tilt"}]}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /campaigns: %d %s", rec.Code, rec.Body.String())
	}
	var ack struct {
		ID string `json:"id"`
	}
	decode(t, rec, &ack)
	jobs := pollCampaign(t, s, ack.ID, time.Minute).Campaign.Jobs
	for _, j := range jobs {
		if j.State != "done" || j.Result == nil {
			t.Fatalf("job %d: state %s, error %q", j.ID, j.State, j.Error)
		}
	}
	for i := 0; i < len(jobs); i += 2 {
		if !reflect.DeepEqual(jobs[i].Result, jobs[i+1].Result) {
			t.Errorf("job %d with fixed_point planned %+v, job %d without %+v", i, jobs[i].Result, i+1, jobs[i+1].Result)
		}
	}

	id, _ := submitExecute(t, s, `{"scenario":"a","method":"power","fixed_point":true}`)
	if view := waitExecute(t, s, id); view.Status.State != "done" {
		t.Errorf("execute with fixed_point: state %q, error %q", view.Status.State, view.Error)
	}
	rec = post(t, s, "/waves", `{"class":"suburban","seed":1,"method":"power","fixed_point":true,
		"wave":{"crews_per_wave":2,"anneal_iters":50}}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /waves with fixed_point: %d %s", rec.Code, rec.Body.String())
	}
	decode(t, rec, &ack)
	if st := pollWave(t, s, ack.ID, 30*time.Second); st.State != "done" {
		t.Errorf("wave with fixed_point: state %q, error %q", st.State, st.Error)
	}
}
