package remote

// FuzzCoordinatorWire throws arbitrary paths and bodies at the
// coordinator's HTTP surface — the routing/registration wire workers
// and shards speak. The invariant is fail-fast, never fall over: any
// malformed shard advert, tenant token or redirect request must come
// back as a 4xx/5xx JSON error without panicking the coordinator or
// corrupting its assignment table.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
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
	f.Add("/v1/shard/register", []byte(`{"v":2,"token":"fed-secret","id":"s1","url":"http://127.0.0.1:9"}`))
	f.Add("/v1/shard/register", []byte(`{"v":2,"token":"fed-secret","id":"rogue","url":"http://127.0.0.1:9"}`))
	f.Add("/v1/shard/register", []byte(`{"v":2,"token":"fed-secret","id":"s1","url":"not a url"}`))
	f.Add("/v1/shard/register", []byte(`{"v":2,"token":"wrong","id":"s1","url":"http://127.0.0.1:9"}`))
	f.Add("/v1/shard/heartbeat", []byte(`{"v":2,"token":"fed-secret","id":"s1"}`))
	f.Add("/v1/shard/heartbeat", []byte(`{"v":2,"token":"fed-secret","id":"s9"}`))
	f.Add("/v1/shards", []byte(``))
	f.Add("/metrics", []byte(``))
	f.Add("/v1/register", []byte("\x00\xff\xfe"))

	c, err := NewCoordinator(CoordinatorOptions{
		Shards:       []string{"s1", "s2"},
		Experiments:  []string{"team-a/cifar", "team-b/lm", "solo"},
		ShardTTL:     time.Hour, // no sweeping during the fuzz run
		AdminToken:   "fed-secret",
		Token:        "fleet-token",
		TenantTokens: map[string]string{"team-a": "a-token", "team-b": "b-token"},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = c.Close() })
	h := c.Handler()

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
	})
}
