package cool_test

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	cool "cool"
	"cool/examples/mediaserver/mediagen"
	"cool/internal/cdr"
	"cool/internal/dacapo"
	"cool/internal/dacapo/modules"
	"cool/internal/leakcheck"
	"cool/internal/netsim"
	"cool/internal/orb"
	"cool/internal/qos"
)

// mediaImpl is the integration-test media server.
type mediaImpl struct {
	frames uint32
}

func (m *mediaImpl) Describe(index uint32) (mediagen.FrameInfo, error) {
	if index >= m.frames {
		return mediagen.FrameInfo{}, &mediagen.OutOfRange{Requested: index, Limit: m.frames}
	}
	return mediagen.FrameInfo{Index: index, Width: 320, Height: 240, Q: mediagen.QualityLOW, SizeBytes: 1024}, nil
}

func (m *mediaImpl) GetFrame(index uint32, q mediagen.Quality) ([]byte, error) {
	if index >= m.frames {
		return nil, &mediagen.OutOfRange{Requested: index, Limit: m.frames}
	}
	return bytes.Repeat([]byte{byte(index)}, 2048), nil
}

func (m *mediaImpl) Catalog(first, count uint32) (mediagen.FrameInfoList, error) {
	var list mediagen.FrameInfoList
	for i := first; i < first+count && i < m.frames; i++ {
		fi, _ := m.Describe(i)
		list = append(list, fi)
	}
	return list, nil
}

func (m *mediaImpl) FrameCount() (int32, error) { return int32(m.frames), nil }
func (m *mediaImpl) Seek(index uint32) (uint32, error) {
	return index % m.frames, nil
}
func (m *mediaImpl) Hint(uint32) {}

// TestFullSystemOverSimulatedWAN wires every subsystem together: two ORBs
// whose Da CaPo transports run over a simulated 10 Mbit/s WAN with real
// propagation delay and jitter; a stringified IOR bootstraps the
// reference; chic-generated stubs carry QoS-negotiated invocations.
func TestFullSystemOverSimulatedWAN(t *testing.T) {
	leakcheck.Check(t)
	wan := netsim.Params{
		BandwidthKbps: 10_000,
		PropDelay:     3 * time.Millisecond,
		Jitter:        500 * time.Microsecond,
		QueueLen:      128,
	}
	inner := netsim.NewManager(wan)
	lib := modules.NewLibrary()
	linkCap := wan.Capability()

	server := cool.NewORB(cool.WithName("wan-server"),
		cool.WithTransport(inner),
		cool.WithTransport(dacapo.NewManager(inner, lib, dacapo.NewResourceManager(10_000, 0), linkCap)))
	client := cool.NewORB(cool.WithName("wan-client"),
		cool.WithTransport(inner),
		cool.WithTransport(dacapo.NewManager(inner, lib, dacapo.NewResourceManager(0, 0), linkCap)))
	t.Cleanup(func() { client.Shutdown(); server.Shutdown() })

	if _, err := server.ListenOn("netsim", "wan-plain"); err != nil {
		t.Fatal(err)
	}
	if _, err := server.ListenOn("dacapo", "wan-qos"); err != nil {
		t.Fatal(err)
	}

	mediaRef, err := server.RegisterServant(
		mediagen.NewMediaServerSkeleton(&mediaImpl{frames: 16}),
		cool.WithCapability(qos.Unconstrained()),
	)
	if err != nil {
		t.Fatal(err)
	}

	// Bootstrap from the stringified reference, as a client handed an
	// IOR out of band would.
	resolved, err := cool.ParseRef(cool.RefString(mediaRef))
	if err != nil {
		t.Fatal(err)
	}
	stub := mediagen.NewMediaServerStub(client.Resolve(resolved))

	// Plain GIOP over the WAN.
	n, err := stub.FrameCount()
	if err != nil || n != 16 {
		t.Fatalf("count = %d, %v", n, err)
	}

	// QoS-negotiated binding: 2 Mbit/s floor over the 10 Mbit/s link.
	if err := stub.SetQoSParameter(cool.QoS(cool.MinThroughput(5000, 2000))); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	frame, err := stub.GetFrame(3, mediagen.QualityMEDIUM)
	if err != nil {
		t.Fatal(err)
	}
	rtt := time.Since(start)
	if len(frame) != 2048 || frame[0] != 3 {
		t.Fatalf("frame = %d bytes", len(frame))
	}
	// The WAN's 2×3 ms propagation delay must be visible end to end.
	if rtt < 6*time.Millisecond {
		t.Fatalf("rtt %v below the physical propagation delay", rtt)
	}

	// Demand beyond the server's 10 Mbit/s admission budget: refused.
	if err := stub.SetQoSParameter(cool.QoS(cool.MinThroughput(50_000, 20_000))); err != nil {
		t.Fatal(err)
	}
	if _, err := stub.GetFrame(1, mediagen.QualityLOW); err == nil {
		t.Fatal("over-budget QoS should be refused")
	}

	// Typed exception across the WAN.
	if err := stub.SetQoSParameter(nil); err != nil {
		t.Fatal(err)
	}
	_, err = stub.Describe(999)
	var oor *mediagen.OutOfRange
	if !errors.As(err, &oor) || oor.Limit != 16 {
		t.Fatalf("err = %v", err)
	}

	// Concurrent clients sharing the negotiated connection.
	if err := stub.SetQoSParameter(cool.QoS(cool.MinThroughput(4000, 1000))); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				fi, err := stub.Describe(uint32(w))
				if err != nil {
					errs <- err
					return
				}
				if fi.Index != uint32(w) {
					errs <- errors.New("wrong frame")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestFullSystemReliableOverLossyWAN drives the ORB + Da CaPo + ARQ path
// over a *lossy* link. Configuration signalling needs a reliable channel
// (as in the paper, where signalling rides the existing transports), so
// the handshake runs first over a clean link and the loss only affects
// data: we emulate that by configuring loss low enough for the 2-message
// handshake and verifying the window ARQ keeps invocations intact.
func TestFullSystemReliableOverLossyWAN(t *testing.T) {
	leakcheck.Check(t)
	wan := netsim.Params{
		BandwidthKbps: 20_000,
		PropDelay:     time.Millisecond,
		LossRate:      0.02,
		Seed:          99,
		QueueLen:      128,
	}
	inner := netsim.NewManager(wan)
	lib := modules.NewLibrary()
	linkCap := wan.Capability()

	server := orb.New(orb.WithName("lossy-server"),
		orb.WithTransport(inner),
		orb.WithTransport(dacapo.NewManager(inner, lib, dacapo.NewResourceManager(0, 0), linkCap)))
	client := orb.New(orb.WithName("lossy-client"),
		orb.WithTransport(inner),
		orb.WithTransport(dacapo.NewManager(inner, lib, dacapo.NewResourceManager(0, 0), linkCap)))
	t.Cleanup(func() { client.Shutdown(); server.Shutdown() })

	if _, err := server.ListenOn("dacapo", "lossy"); err != nil {
		t.Fatal(err)
	}
	ref, err := server.RegisterServant(
		mediagen.NewMediaServerSkeleton(&mediaImpl{frames: 8}),
		orb.WithCapability(qos.Unconstrained()),
	)
	if err != nil {
		t.Fatal(err)
	}
	stub := mediagen.NewMediaServerStub(client.Resolve(ref))

	// Full reliability demanded: the configuration manager adds the
	// window ARQ + CRC-32 stack over the lossy link.
	req := cool.QoS(cool.Reliable()...)
	// Retry the handshake a few times: the signalling itself crosses the
	// lossy link (2% per message).
	var lastErr error
	for attempt := 0; attempt < 8; attempt++ {
		if err := stub.SetQoSParameter(nil); err != nil {
			t.Fatal(err)
		}
		if err := stub.SetQoSParameter(req); err != nil {
			t.Fatal(err)
		}
		if _, lastErr = stub.FrameCount(); lastErr == nil {
			break
		}
	}
	if lastErr != nil {
		t.Fatalf("handshake never succeeded: %v", lastErr)
	}

	// 40 invocations over the 2%-lossy link: ARQ must recover every one.
	for i := 0; i < 40; i++ {
		frame, err := stub.GetFrame(uint32(i%8), mediagen.QualityLOW)
		if err != nil {
			t.Fatalf("invocation %d: %v", i, err)
		}
		if len(frame) != 2048 || frame[0] != byte(i%8) {
			t.Fatalf("invocation %d corrupted", i)
		}
	}
}

// TestNetsimTransportDirect runs plain GIOP over the netsim transport to
// pin the scheme into the ORB-visible registry contract.
func TestNetsimTransportDirect(t *testing.T) {
	leakcheck.Check(t)
	inner := netsim.NewManager(netsim.Loopback())
	server := orb.New(orb.WithTransport(inner))
	client := orb.New(orb.WithTransport(inner))
	t.Cleanup(func() { client.Shutdown(); server.Shutdown() })
	if _, err := server.ListenOn("netsim", ""); err != nil {
		t.Fatal(err)
	}
	ref, err := server.RegisterServant(facadeServant{})
	if err != nil {
		t.Fatal(err)
	}
	obj := client.Resolve(ref)
	var msg string
	if err := obj.Invoke("ping", nil, func(dec *cdr.Decoder) error {
		var err error
		msg, err = dec.ReadString()
		return err
	}); err != nil || msg != "pong" {
		t.Fatalf("ping = %q, %v", msg, err)
	}
}
