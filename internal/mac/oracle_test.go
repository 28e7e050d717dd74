package mac

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/simrand"
)

// TestProtocolsMatchClosedForms checks the three protocols against the
// closed forms of their delivery rate and mean attempt count under iid
// chunk loss p, n chunks per frame and an attempt budget A:
//
//   - stop-and-wait resends whole frames. An attempt succeeds with
//     qf = (1-p)^n, so the frame delivers with 1-(1-qf)^A and the
//     truncated geometric takes pDeliver/qf attempts on average.
//   - block-ACK, and full-duplex without feedback errors or early
//     abort, resend only lost chunks. A chunk is still lost after k
//     rounds with p^k, so the frame delivers with (1-p^A)^n and round
//     k+1 happens with 1-(1-p^k)^n.
//
// Delivery must fall within 4 binomial sigmas; mean attempts within 2%
// plus 0.01.
func TestProtocolsMatchClosedForms(t *testing.T) {
	const frames = 100000
	seed := uint64(0)
	for _, p := range []float64{0.01, 0.05, 0.2, 0.4} {
		for _, attempts := range []int{1, 2, 4} {
			for _, payload := range []int{64, 256, 1500} {
				params := Params{PayloadBytes: payload, MaxAttempts: attempts}
				n := float64(params.NumChunks())
				A := float64(attempts)

				qf := math.Pow(1-p, n)
				swDeliver := 1 - math.Pow(1-qf, A)
				perChunkDeliver := math.Pow(1-math.Pow(p, A), n)
				perChunkAttempts := 0.0
				for k := 0; k < attempts; k++ {
					perChunkAttempts += 1 - math.Pow(1-math.Pow(p, float64(k)), n)
				}

				cases := []struct {
					proto                Protocol
					deliver, meanAttempt float64
				}{
					{&StopAndWait{P: params}, swDeliver, swDeliver / qf},
					{&BlockACK{P: params}, perChunkDeliver, perChunkAttempts},
					{&FullDuplex{P: params, Seed: seed}, perChunkDeliver, perChunkAttempts},
				}
				for _, c := range cases {
					seed++
					name := fmt.Sprintf("%s/p=%g/A=%d/payload=%d", c.proto.Name(), p, attempts, payload)
					res := c.proto.Run(frames, NewIIDLoss(p, simrand.New(seed)))
					sigma := math.Sqrt(c.deliver * (1 - c.deliver) / frames)
					if got := res.DeliveryRate(); math.Abs(got-c.deliver) > 4*sigma {
						t.Errorf("%s: delivery %.6f, closed form %.6f (4 sigma = %.2g)", name, got, c.deliver, 4*sigma)
					}
					got := float64(res.Attempts) / float64(res.FramesSent)
					if math.Abs(got-c.meanAttempt) > 0.02*c.meanAttempt+0.01 {
						t.Errorf("%s: mean attempts %.4f, closed form %.4f", name, got, c.meanAttempt)
					}
				}
			}
		}
	}
}

// TestFullDuplexFeedbackErrorsMatchClosedForm checks the full-duplex
// protocol's feedback-error path against its closed form. With no chunk
// loss every chunk arrives on its first send, so only a flipped feedback
// bit (probability e) makes the sender resend it: a false NACK. Each
// send of a chunk is then an independent trial that ends the chunk with
// probability 1-e, so a chunk takes a geometric number of sends with mean
// 1/(1-e) and variance e/(1-e)^2, and a frame of n chunks takes
// n/(1-e) on average. With early termination off and a 64-attempt
// budget every frame delivers, no false ACK can occur (nothing is lost),
// and every resend answers exactly one false NACK.
//
// Mean sends per frame must fall within 4 sigmas of n/(1-e), and the
// flipped fraction of feedback bits within 4 binomial sigmas of e.
func TestFullDuplexFeedbackErrorsMatchClosedForm(t *testing.T) {
	const frames = 20000
	params := Params{PayloadBytes: 1024, ChunkBytes: 64, MaxAttempts: 64}
	n := float64(params.NumChunks())
	for i, e := range []float64{0.01, 0.05, 0.1, 0.2} {
		p := params
		p.FeedbackBER = e
		res := (&FullDuplex{P: p, Seed: uint64(100 + i)}).Run(frames, NewIIDLoss(0, simrand.New(uint64(200+i))))
		name := fmt.Sprintf("e=%g", e)
		if res.FramesDelivered != frames {
			t.Errorf("%s: delivered %d of %d frames", name, res.FramesDelivered, frames)
		}
		if res.FalseACK != 0 {
			t.Errorf("%s: %d false ACKs with no chunk loss", name, res.FalseACK)
		}
		if res.Aborts != 0 {
			t.Errorf("%s: %d aborts with early termination off", name, res.Aborts)
		}
		if res.ChunkRetx != res.FalseNACK {
			t.Errorf("%s: ChunkRetx %d != FalseNACK %d", name, res.ChunkRetx, res.FalseNACK)
		}
		want := n / (1 - e)
		sigma := math.Sqrt(n * e / ((1 - e) * (1 - e)) / frames)
		if got := float64(res.ChunkTx) / frames; math.Abs(got-want) > 4*sigma {
			t.Errorf("%s: mean ChunkTx per frame %.4f, closed form %.4f (4 sigma = %.2g)", name, got, want, 4*sigma)
		}
		flipSigma := math.Sqrt(e * (1 - e) / float64(res.ChunkTx))
		if got := float64(res.FalseNACK) / float64(res.ChunkTx); math.Abs(got-e) > 4*flipSigma {
			t.Errorf("%s: flipped fraction %.5f, want %g (4 sigma = %.2g)", name, got, e, 4*flipSigma)
		}
	}
}
