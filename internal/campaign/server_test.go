package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xt910/internal/cliflags"
)

// getJSON fetches url; when v is non-nil it decodes the body into v and
// closes it, otherwise the caller owns the (still open) body.
func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if v != nil {
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
				t.Fatalf("GET %s: decode: %v", url, err)
			}
		}
	}
	return resp
}

func TestHTTPAPI(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{StateDir: dir, Jobs: 2,
		Runner: stubRunner{sigFor: func(seed int64) string {
			if seed == 2 {
				return "xreg/x7/mul"
			}
			return ""
		}}})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer e.Close()
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	// healthz
	if resp := getJSON(t, srv.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// submit
	spec := &Spec{Tool: "fuzz", Knobs: cliflags.Knobs{N: 4, Seed: 1}, Shards: 2}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(srv.URL+"/api/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatalf("submit decode: %v", err)
	}
	resp.Body.Close()
	if sub.ID == "" {
		t.Fatal("submit returned no id")
	}

	// invalid spec -> 400, including a legal mode spec whose harts make an
	// illegal machine
	for _, bad := range []string{
		`{"tool":"warp"}`,
		`{"tool":"fuzz","n":1,"harts":3}`,
		`{"tool":"fuzz","n":1,"modes":"paged","harts":2}`,
	} {
		resp, _ = http.Post(srv.URL+"/api/v1/campaigns", "application/json", strings.NewReader(bad))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad spec %s: status %d, want 400", bad, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// poll status to done
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st Status
		if resp := getJSON(t, srv.URL+"/api/v1/campaigns/"+sub.ID, &st); resp.StatusCode != http.StatusOK {
			t.Fatalf("status: %d", resp.StatusCode)
		}
		if st.Status == StatusDone {
			if st.ItemsDone != 4 || st.Items != 4 || len(st.Shards) != 2 {
				t.Fatalf("unexpected final status: %+v", st)
			}
			break
		}
		if st.Status == StatusFailed {
			t.Fatalf("campaign failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign never finished: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// list
	var list []Status
	getJSON(t, srv.URL+"/api/v1/campaigns", &list)
	if len(list) != 1 || list[0].ID != sub.ID {
		t.Fatalf("list: %+v", list)
	}

	// merged report: one line per seed, seed order
	resp = getJSON(t, srv.URL+"/api/v1/campaigns/"+sub.ID+"/report", nil)
	rep, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimRight(string(rep), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("report has %d lines, want 4:\n%s", len(lines), rep)
	}
	for i, ln := range lines {
		var row struct {
			Seed int64 `json:"seed"`
		}
		if err := json.Unmarshal([]byte(ln), &row); err != nil || row.Seed != int64(i+1) {
			t.Fatalf("report line %d wrong: %q (%v)", i, ln, err)
		}
	}

	// divergences
	var divs []*Divergence
	getJSON(t, srv.URL+"/api/v1/campaigns/"+sub.ID+"/divergences", &divs)
	if len(divs) != 1 || divs[0].Seed != 2 || divs[0].Signature != "xreg/x7/mul" {
		t.Fatalf("divergences: %+v", divs)
	}

	// repro
	resp = getJSON(t, srv.URL+"/api/v1/campaigns/"+sub.ID+"/repro/2", nil)
	src, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(src), "li x5, 2") {
		t.Fatalf("repro: status %d body %q", resp.StatusCode, src)
	}
	if resp := getJSON(t, srv.URL+"/api/v1/campaigns/"+sub.ID+"/repro/3", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("repro for clean seed: status %d, want 404", resp.StatusCode)
	}

	// corpus
	var corpus []*CorpusEntry
	getJSON(t, srv.URL+"/api/v1/corpus", &corpus)
	if len(corpus) != 1 || corpus[0].Signature != "xreg/x7/mul" || corpus[0].Campaign != sub.ID {
		t.Fatalf("corpus: %+v", corpus)
	}

	// unknown campaign -> 404
	if resp := getJSON(t, srv.URL+"/api/v1/campaigns/c9999", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign: status %d", resp.StatusCode)
	}
}

func TestHTTPDrainRejectsSubmissions(t *testing.T) {
	e, err := Open(Options{StateDir: t.TempDir(),
		Runner: stubRunner{sigFor: func(int64) string { return "" }}})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()
	e.Close() // drain

	spec, _ := json.Marshal(&Spec{Tool: "fuzz", Knobs: cliflags.Knobs{N: 1}})
	resp, err := http.Post(srv.URL+"/api/v1/campaigns", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/healthz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", resp.StatusCode)
	}
}

// TestReportNotReady pins the 409 until the campaign finishes.
func TestReportNotReady(t *testing.T) {
	gate := &gateRunner{inner: stubRunner{sigFor: func(int64) string { return "" }}, allow: 0}
	e, err := Open(Options{StateDir: t.TempDir(), Jobs: 1, Runner: gate})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer e.Close()
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	id, err := e.Submit(&Spec{Tool: "fuzz", Knobs: cliflags.Knobs{N: 2, Seed: 1}})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	resp := getJSON(t, fmt.Sprintf("%s/api/v1/campaigns/%s/report", srv.URL, id), nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("report before done: status %d, want 409", resp.StatusCode)
	}
}
