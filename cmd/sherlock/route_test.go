package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"sherlock/internal/cluster"
	"sherlock/internal/core"
	"sherlock/internal/server"
)

// fakeClusterInfo serves a two-node /v1/cluster/info document naming
// itself n1 and other n2, both up, with the default base config.
func fakeClusterInfo(t *testing.T, other string) *httptest.Server {
	t.Helper()
	var self *httptest.Server
	self = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/cluster/info" {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{
			"node":       "n1",
			"replicas":   1,
			"job_config": server.ConfigText(core.DefaultConfig()),
			"peers": []map[string]any{
				{"id": "n1", "url": self.URL, "self": true, "up": true},
				{"id": "n2", "url": other, "up": true},
			},
		})
	}))
	t.Cleanup(self.Close)
	return self
}

// TestRouteSubmitStaticStaysOnGivenNode: campaign specs route to their
// job key's ring owner, while static specs — filed under a key that hashes
// the program, which the published config text cannot supply — go to the
// node the user named.
func TestRouteSubmitStaticStaysOnGivenNode(t *testing.T) {
	const other = "http://n2.invalid"
	info := fakeClusterInfo(t, other)
	ctx := context.Background()
	ring := cluster.NewRing([]string{"n1", "n2"})

	var remote string
	for _, app := range []string{"App-1", "App-2", "App-3", "App-4", "App-5", "App-6", "App-7", "App-8"} {
		key := server.JobKey(server.JobSpec{App: app}, core.DefaultConfig())
		if ring.Replicas(key, 1)[0] == "n2" {
			remote = app
			break
		}
	}
	if remote == "" {
		t.Fatal("no benchmark app's campaign key is owned by n2")
	}
	if target, routed := routeSubmit(ctx, info.URL, submitSpec{App: remote}); target != other || !routed {
		t.Fatalf("campaign %s routed to %s (routed=%t), want its owner %s", remote, target, routed, other)
	}
	if target, routed := routeSubmit(ctx, info.URL, submitSpec{StaticApp: remote}); target != info.URL || routed {
		t.Fatalf("static %s routed to %s (routed=%t), want the given node %s", remote, target, routed, info.URL)
	}
}
