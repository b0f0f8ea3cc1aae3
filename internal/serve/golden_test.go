package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestInlineFingerprintGolden pins the store address of inline /search
// bodies to fixed hex values. Fingerprints are the result store's
// content addresses: if one moves, every cached result of that search
// is silently orphaned and every cluster peer on an older build
// answers 409. The bodies are the accepted requests of
// TestSearchErrorPaths, the CI daemon and cluster smokes, cmd/rdvload's
// hot and cold bodies at its default and fairness shapes, and bodies
// covering the other deterministic families, explicit label and start
// pairs, non-default explorers and algorithms, every symmetry mode and
// the transport-only stream/timings flags.
func TestInlineFingerprintGolden(t *testing.T) {
	cases := []struct{ body, want string }{
		{ringRequest,
			"a59a7cf567a4ffc67fcc1d2b2c354c3e72729b61b2f473bdb155d21d208857ea"},
		{`{"graph":{"family":"ring","n":6},"explorer":"ring-sweep","algorithm":"cheap","L":3,"labelPairs":[],"startPairs":[],"delays":[]}`,
			"2262538c19f86b47a231c3088fa78effd050f6b2e49c5d97463a71569252ffab"},
		{`{"graph":{"family":"ring","n":12},"algorithm":"fast","L":8,"delays":[0,1]}`,
			"434fb075a93a6563dd21559161d8f561fe5e89b01b835528774031baccc69247"},
		{`{"graph":{"family":"torus","rows":4,"cols":4},"algorithm":"fast","L":128,"delays":[0,1],"symmetry":"off"}`,
			"2af56f1971ea6b00d51c98ee1bdc681c07fab991bde24979c902a1a16b22ba81"},
		{`{"graph":{"family":"ring","n":3},"algorithm":"cheap","L":2,"delays":[0]}`,
			"b4c1f6b980ada46c5dad7e0f40f0f18a3bdb6ddd17604ffdad77730b04dc8476"},
		{`{"graph":{"family":"ring","n":3},"algorithm":"cheap","L":2,"delays":[8]}`,
			"e5589a300c50d1603eacb0712b80950e10017da64da45e83c747f0a66e543145"},
		{`{"graph":{"family":"ring","n":16},"algorithm":"fast","L":128,"delays":[0]}`,
			"d2f515197e31ad5d3013fe49f0a6e8aa9b9f67644d11ab12790fb19d125137bf"},
		{`{"graph":{"family":"ring","n":16},"algorithm":"fast","L":128,"delays":[1]}`,
			"2734fa785f04e7a759ae92c3d6cd9bf56a8970f993b7bbf88033165806755cf4"},
		{`{"graph":{"family":"grid","rows":4,"cols":4},"algorithm":"fast","L":24,"delays":[0,1],"symmetry":"off"}`,
			"43bfd86be74194a92329aeaf98303436d5f44f35cb1c42b46fa7e1eec981d375"},
		{`{"graph":{"family":"hypercube","n":3},"algorithm":"fast","L":4,"delays":[0],"symmetry":"forced"}`,
			"7819f980ae68acaebe4023a2218bf013ecb3162b2d5c20fc33e3981ebf515e6b"},
		{`{"graph":{"family":"complete","n":5},"algorithm":"cheap","L":4,"delays":[0,1],"symmetry":"auto"}`,
			"00ee59a415c72b63f6c312d557a189c0a57f2064c82be97f65cd7a68cbe83498"},
		{`{"graph":{"family":"circulant","n":6},"algorithm":"fast","L":3,"delays":[0],"symmetry":"off"}`,
			"4a09491b02ef307a1e340ef260a6fa25968ee22c87390eea19966694e8ec855e"},
		{`{"graph":{"family":"path","n":5},"explorer":"dfs","algorithm":"cheap-sim","labelPairs":[[1,2],[3,1]],"startPairs":[[0,4],[2,1]],"delays":[0,3]}`,
			"b3b723aad9bf903007c87cf1191c46969b92f462dd43332f30c7119146c35f9b"},
		{`{"graph":{"family":"star","n":5},"algorithm":"fwr2","L":4,"delays":[0,2]}`,
			"1c2f7c52209245e5c4cbb4a0e88916b5c118c02c3a4fc9523ee429423d0e6bc8"},
		{`{"graph":{"family":"ring","n":8},"explorer":"ring-sweep","algorithm":"cheap","L":4,"delays":[0,1],"stream":true,"timings":true}`,
			"719ab6a27e39ad45fa76df9887083f2164ddb2d73d6e201abc76bd251d503f04"},
	}
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		// Decode exactly as handleSearch does.
		dec := json.NewDecoder(bytes.NewReader([]byte(tc.body)))
		dec.DisallowUnknownFields()
		var req Request
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		_, _, fp, err := srv.compileAndFingerprint(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		if fp != tc.want {
			t.Errorf("%s:\n fingerprint %s\n        want %s", tc.body, fp, tc.want)
		}
	}
}
