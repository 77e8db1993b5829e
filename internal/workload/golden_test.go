package workload

import (
	"encoding/hex"
	"testing"

	"decvec/internal/trace"
)

// goldenTraceHashes pins trace.Hash of every program's trace at scales
// 0.25 and 1. The hash is the trace half of every persistent cache key, so
// any change to trace synthesis or to the binary encoding shows up here
// before it silently invalidates stored results.
var goldenTraceHashes = []struct {
	name  string
	scale float64
	hash  string
}{
	{"ARC2D", 0.25, "f50e891982a1766a0f7592a7df24bfe28985642a814be851966e54e42ea5e766"},
	{"FLO52", 0.25, "d67d25f5cf01b3560675b2d393b95cb86b60dc141c1de1f44783ca2df3670a94"},
	{"BDNA", 0.25, "3ee837c47012d57f2cede7d9c577a25ded7cd5f9981d5a50c4ed669de6642783"},
	{"TRFD", 0.25, "caf8837687bd48875649310c9d6cf085cac756e262ba827dadc2fbaa6d781edb"},
	{"DYFESM", 0.25, "ba443654b6398ae745615aec83d9e5e60c0caa9cae8db86c72abeecf387f9a66"},
	{"SPEC77", 0.25, "6f8590a0936afd9ffdc363773113657b8430b67f36183c7c0118433b96bbaade"},
	{"MG3D", 0.25, "3382ac755e3bc7dabb13260d4dd2e5f6e855b1ebdb07c029f2324a24757921da"},
	{"MDG", 0.25, "d93b08bb45d9fbf628b477544a6e5dc7342dc7e31b6314fd02c562b2ea009134"},
	{"ADM", 0.25, "a467e9d176d1a41d53c6d5ed82b9299cf6c964aaefceb5274fb270fd908b266b"},
	{"OCEAN", 0.25, "8ace93a106e53ea3e1fc5e4e6d7421099947bec08cb5a2f2fb6a490f310fddbb"},
	{"QCD", 0.25, "6e3cf6fd46dd0e98b29a099f717045655b9967e9a618a57968e8c36707e455d2"},
	{"TRACK", 0.25, "55001b3ec873cc09eb7f14031f93e4a00ee78453bc18c75544ae29fe201aa89d"},
	{"SPICE", 0.25, "908175275b0c7a1a89e312da9fd78e3993f8135fb40b69aa01b67296d6c15b5f"},
	{"ARC2D", 1, "4e0354bf22b13b0acd0b606a4d0af4d784b0e665cd100c0225672e82bafa4543"},
	{"FLO52", 1, "391646f67aa836eb6a8036371a71d7bba11c078ce6796393a7157ca302b573e2"},
	{"BDNA", 1, "b0e12341cbf85b63d4d4a09aff36d307dc5d00efc13c3f384ff25bc199e2f954"},
	{"TRFD", 1, "0bf50893638330ae084560a70319f6a4b91d54c6769a8f42517b6414ba6074f5"},
	{"DYFESM", 1, "30e6949696894d7aeb57e299f39689276036bc15a700806fced0c538b36443af"},
	{"SPEC77", 1, "7173ad6b9ac70944044e968a5fcd5d110060b55e4de3d85f8ec35f68f0aaf7b0"},
	{"MG3D", 1, "089b7d8253944078b65b725e5ab67c5f0bbb1733ce9f993b86af3698afb6ee67"},
	{"MDG", 1, "47a94dd19e4c71d57f94fcc4457441d297fd74a2f9af9262a103bb52b6224505"},
	{"ADM", 1, "f7083ccd6086a44425dd66fc689d86fff4a2ed75c1a8cd6aeb348652a0055a33"},
	{"OCEAN", 1, "e74ed0a6874409320895638cd084809f04f89c78ebe4cff16239b279cec7bc4c"},
	{"QCD", 1, "6d1e23867d64dfca066e6c153b81b2b5cb5ca77ba359344598be19d0fef5f3e2"},
	{"TRACK", 1, "6e7d10d31eebe7867884583ebc8bbf40717aa1224016fb62a6830a283e679df4"},
	{"SPICE", 1, "ba8ca5b374a44e81d49ff64dc16fc715f420440417eb70efe4101565c6a18b88"},
}

func TestGoldenTraceHashes(t *testing.T) {
	if got, want := len(goldenTraceHashes), 2*len(All); got != want {
		t.Fatalf("%d golden hashes, want %d", got, want)
	}
	for _, g := range goldenTraceHashes {
		p, err := Get(g.name)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := trace.Hash(p.Trace(g.scale))
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(sum[:]); got != g.hash {
			t.Errorf("%s at scale %v: trace hash %s, want %s", g.name, g.scale, got, g.hash)
		}
	}
}
