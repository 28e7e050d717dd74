package netsim

// Golden digests: the sha256 of a full NetResult rendering at seed 1
// through Run (one worker), for every built-in preset and the TDM +
// ARF + mobility stress scenario. Worker-count identity compares the
// engine with itself, so a change applied to every worker count at
// once would still pass it; these digests pin the bytes themselves.
// A change to the engine's state layout must leave every one of them
// unchanged.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"path/filepath"
	"testing"
)

// renderResult writes every field of r: each TagStats (RateChunks and
// RateLostChunks included) and ReaderStats in order, then the
// aggregates, the defaulted scenario echo and the unexported
// accumulators behind MeanCwnd and MeanRateMult. %v prints floats in
// their shortest round-trip form, so equal renderings mean equal bits.
func renderResult(w io.Writer, r *NetResult) {
	for i := range r.Tags {
		fmt.Fprintf(w, "tag %+v\n", r.Tags[i])
	}
	for i := range r.Readers {
		fmt.Fprintf(w, "reader %+v\n", r.Readers[i])
	}
	agg := *r
	agg.Tags, agg.Readers = nil, nil
	fmt.Fprintf(w, "result %+v\n", agg)
}

func resultDigest(r *NetResult) string {
	h := sha256.New()
	renderResult(h, r)
	return hex.EncodeToString(h.Sum(nil))
}

// goldenScenarios returns every preset (million scaled to 2^14 tags),
// the stress scenario, and the shipped TDM + ARF example, whose 9000
// tags span several tag-range shards.
func goldenScenarios(t *testing.T) []Scenario {
	t.Helper()
	var out []Scenario
	for _, name := range PresetNames() {
		sc, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if name == "million" {
			sc.Tags = 1 << 14
		}
		out = append(out, sc)
	}
	shelf, err := LoadScenario(filepath.Join("..", "..", "examples", "scenarios", "tdm-arf-shelf.json"))
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, tdmMobileAdaptScenario(), shelf)
	return append(out, serveScenarios(t)...)
}

// serveScenarios are the serve configurations no preset runs: each MAC
// protocol and adapter pairing the lanes stage differently, a static
// channel under an adapter, grant-order service, an abort right after
// the first NACK (an idle backoff mid-frame), and interference bursts
// composed into a faded chunk loss.
func serveScenarios(t *testing.T) []Scenario {
	t.Helper()
	preset := func(name, as string) Scenario {
		sc, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		sc.Name = as
		return sc
	}
	swARF := preset("fading-aisle", "serve-sw-arf")
	swARF.Protocol = "stop-and-wait"
	swARF.RateAdapt.Adapter = RateAdaptARF
	baFD := preset("fading-aisle", "serve-ba-fd")
	baFD.Protocol = "block-ack"
	rho0 := preset("fading-aisle", "serve-fd-rho0")
	rho0.RateAdapt.FadeRho = 0
	fifo := preset("fading-aisle", "serve-fifo-fd")
	fifo.Readers.Policy = PolicyFIFO
	abort1 := preset("fading-aisle", "serve-abort1")
	abort1.AbortThreshold = 1
	outage := preset("outage-retail", "serve-outage-fd")
	outage.RateAdapt = RateAdaptSpec{Adapter: RateAdaptFD, FadeRho: 0.9}
	return []Scenario{swARF, baFD, rho0, fifo, abort1, outage}
}

var goldenDigests = map[string]string{
	"congested-dock":   "2c7e8d6c09710d3528a9660e24b04bed9f3f572eee97201748e33bc7c62d72d7",
	"fading-aisle":     "c9a286c068eaaa388f8a36b8f5d5991d58d91475555c169657edd124463323ea",
	"lab-bench":        "d7076307dfbdbbca38314855f39b753177a3984d62f36a901ac6c633a2d918d1",
	"mall-cells":       "fbd356422cbc3727ae15535a49b4a3afba49162bfdcfa03a6a0c7d026b81bcf4",
	"million":          "0148afc733986cd01508a54dc31d322f74704c4cff3cc490d875c77d3821da81",
	"mobile-fleet":     "622d708c7568a2de51704240797600200fa2b43bf62662b50527f4a0ea0e0015",
	"outage-retail":    "9c67e8e9db2d78cd551a8728250dc8064c61380bd7a2e04258bd75990ba66ef8",
	"retail-shelf":     "e495cc02deb5ea0bccbf340cda0d4001d17a1ecfd03deb450430aae9cca787ba",
	"sparse-field":     "7e98ee3ef35c02b37b16e7ead763325f3494072e853007e73a3c96b19e18b56e",
	"warehouse":        "426099deebeef0f54ad2998eda864a794fe82892b04a6f0bc6ebb7053a4a44a4",
	"tdm-mobile-adapt": "527946450cdd8466655bcf92c4cc337c3cfb330eefa2fa6da23b343cfddcad3d",
	"tdm-arf-shelf":    "b015bfea4394ecc37888a74f364deba1cd0eaa165f97dc002af0ceb5f0a64b11",
	"serve-sw-arf":     "66b5febad2f31c3cefcb1876662d107b3436072d9f2fec174137408d62e723b4",
	"serve-ba-fd":      "eb02d253b0b3ba48da21ece1fbde62e3940d07f07047fc1ef66e47cfc83335e0",
	"serve-fd-rho0":    "a13a5309fcf0a032e5f8d7c7faee1b0b49a245ef559bc0dfc238ddef83af08cc",
	"serve-fifo-fd":    "2b9766333e20404c456e612fd6832b4e803e8272826ece2b48a506fd4005d286",
	"serve-abort1":     "e85680d2a4e1e872f5e0e310a15e8bf93d1e4bd6105a60322d8657045e7868aa",
	"serve-outage-fd":  "bb0c4fcb73df50c5d5e24ffb8bce4f0d417ef0fdfa39e2823fad09b1fe5d2171",
}

func TestGoldenDigests(t *testing.T) {
	for _, sc := range goldenScenarios(t) {
		res, err := Run(sc, 1)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		got := resultDigest(res)
		if want := goldenDigests[sc.Name]; got != want {
			t.Errorf("%s: digest %s, want %s", sc.Name, got, want)
		}
	}
}
