package precoding

import (
	"fmt"

	"copa/internal/channel"
)

// BeamformingIntoScalar is the per-subcarrier scalar reference path of
// BeamformingInto: one SVDWS per subcarrier, exactly the pre-batch
// implementation. The kernel-equivalence tests cross-check the batched
// path against it.
func BeamformingIntoScalar(ws *Workspace, dst *Precoder, csi *channel.Link, streams int) (*Precoder, error) {
	if streams < 1 || streams > csi.NTx() || streams > csi.NRx() {
		return nil, fmt.Errorf("precoding: cannot send %d streams over a %dx%d channel",
			streams, csi.NRx(), csi.NTx())
	}
	dst = reusePrecoder(dst, streams, len(csi.Subcarriers))
	for k := range csi.Subcarriers {
		ws.Reset()
		beamformSubcarrierScalar(ws, dst, csi, streams, k)
	}
	return dst, nil
}

// NullingIntoScalar is the per-subcarrier scalar reference path of
// NullingInto: NullspaceWS + SVDWS per subcarrier, exactly the pre-batch
// implementation. The kernel-equivalence tests cross-check the batched
// path against it.
func NullingIntoScalar(ws *Workspace, dst *Precoder, own, cross *channel.Link, streams int) (*Precoder, error) {
	if own.NTx() != cross.NTx() {
		return nil, fmt.Errorf("precoding: own/cross antenna mismatch %d vs %d", own.NTx(), cross.NTx())
	}
	if streams < 1 || streams > own.NRx() {
		return nil, fmt.Errorf("precoding: cannot deliver %d streams to a %d-antenna client",
			streams, own.NRx())
	}
	dst = reusePrecoder(dst, streams, len(own.Subcarriers))
	for k := range own.Subcarriers {
		ws.Reset()
		if err := nullSubcarrierScalar(ws, dst, own, cross, streams, k); err != nil {
			return nil, err
		}
	}
	return dst, nil
}
