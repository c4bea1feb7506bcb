package remote

// FuzzCoordinatorWire throws arbitrary paths and bodies at the
// coordinator's HTTP surface — the routing and beat wire workers and
// shards speak. The invariant is fail-fast, never fall over: any
// malformed shard beat, tenant token or redirect request must come
// back as a 4xx/5xx JSON error without panicking the coordinator or
// corrupting its assignment table — after every input each configured
// experiment is still owned by a configured shard, and /v1/shards still
// lists exactly the configured shards.

import (
	"bytes"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"
)

func FuzzCoordinatorWire(f *testing.F) {
	// Seeds: one well-formed request per endpoint, then the malformed
	// shapes the handlers must reject — wrong version, truncated JSON,
	// unknown shard, cross-tenant experiments, schemeless shard URLs.
	f.Add("/v1/register", []byte(`{"v":2,"token":"fleet-token","experiments":["team-a/cifar"]}`))
	f.Add("/v1/register", []byte(`{"v":2,"token":"a-token","experiments":["team-b/lm"]}`))
	f.Add("/v1/register", []byte(`{"v":99,"token":"fleet-token"}`))
	f.Add("/v1/register", []byte(`{"v":2,"token":`))
	f.Add("/v1/shard/beat", []byte(`{"v":2,"token":"fed-secret","id":"s1","url":"http://127.0.0.1:9"}`))
	f.Add("/v1/shard/beat", []byte(`{"v":2,"token":"fed-secret","id":"rogue","url":"http://127.0.0.1:9"}`))
	f.Add("/v1/shard/beat", []byte(`{"v":2,"token":"fed-secret","id":"s1","url":"not a url"}`))
	f.Add("/v1/shard/beat", []byte(`{"v":2,"token":"wrong","id":"s1","url":"http://127.0.0.1:9"}`))
	f.Add("/v1/shard/beat", []byte(`{"v":2,"token":"fed-secret","id":"s1"}`))
	f.Add("/v1/shard/beat", []byte(`{"v":2,"token":"fed-secret","id":"s9"}`))
	f.Add("/v1/shards", []byte(``))
	f.Add("/metrics", []byte(``))
	f.Add("/v1/register", []byte("\x00\xff\xfe"))

	shards := []string{"s1", "s2"}
	exps := []string{"team-a/cifar", "team-b/lm", "solo"}
	c, err := NewCoordinator(CoordinatorOptions{
		Shards:       shards,
		Experiments:  exps,
		ShardTTL:     time.Hour, // no sweeping during the fuzz run
		AdminToken:   "fed-secret",
		Token:        "fleet-token",
		TenantTokens: map[string]string{"team-a": "a-token", "team-b": "b-token"},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = c.Close() })
	h := c.hs.Handler

	f.Fuzz(func(t *testing.T, path string, body []byte) {
		// http.NewRequest rejects unparsable targets; that is the edge of
		// the wire, not a coordinator bug.
		req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		if err != nil {
			t.Skip()
		}
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // must not panic
		if rec.Code == 0 {
			t.Fatalf("no status written for POST %q", path)
		}
		// GET on the same path must be equally safe.
		if req2, err := http.NewRequest(http.MethodGet, path, nil); err == nil {
			h.ServeHTTP(httptest.NewRecorder(), req2)
		}

		c.mu.Lock()
		assign := maps.Clone(c.assign)
		c.mu.Unlock()
		if len(assign) != len(exps) {
			t.Fatalf("after POST %q: assignment table %v, want one entry per experiment of %v", path, assign, exps)
		}
		for _, e := range exps {
			if !slices.Contains(shards, assign[e]) {
				t.Fatalf("after POST %q: experiment %q assigned to %q, not a configured shard", path, e, assign[e])
			}
		}
		st := httptest.NewRecorder()
		get, _ := http.NewRequest(http.MethodGet, "/v1/shards", nil)
		get.Header.Set("Authorization", "Bearer fed-secret")
		h.ServeHTTP(st, get)
		var shs ShardsStatus
		if err := json.Unmarshal(st.Body.Bytes(), &shs); st.Code != http.StatusOK || err != nil {
			t.Fatalf("after POST %q: /v1/shards answered %d (%v)", path, st.Code, err)
		}
		ids := make([]string, len(shs.Shards))
		for i, sh := range shs.Shards {
			ids[i] = sh.ID
		}
		if !slices.Equal(ids, shards) {
			t.Fatalf("after POST %q: /v1/shards lists %+v, want exactly %v", path, shs.Shards, shards)
		}
	})
}
