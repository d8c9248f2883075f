package main

import (
	"testing"

	"cnetverifier/internal/check"
)

func TestParseStrategy(t *testing.T) {
	for in, want := range map[string]check.Strategy{
		"dfs": check.DFS, "bfs": check.BFS, "walk": check.RandomWalk,
		"DFS": check.DFS, "Bfs": check.BFS, "WALK": check.RandomWalk,
	} {
		got, err := parseStrategy(in)
		if err != nil || got != want {
			t.Errorf("parseStrategy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "random-walk", "dfs ", "astar"} {
		if got, err := parseStrategy(in); err == nil {
			t.Errorf("parseStrategy(%q) = %v, want an error", in, got)
		}
	}
}
