package main

import (
	"fmt"
	"net"
	"sync"

	"waran/internal/core"
	"waran/internal/e2"
	"waran/internal/ric"
)

// association is one E2 association over loopback TCP: the benchmark's own
// accept hands the RIC end to RIC.ServeConn, and the gNB end runs a
// ric.Agent over the cell's control surface.
type association struct {
	ricConn, agentConn *e2.Conn
	agent              *ric.Agent
	agentDone          <-chan error
	ctl                *ranControl
	served             chan error
}

// e2Codec is the codec cmd/gnb and cmd/ric default to.
var e2Codec = e2.BinaryCodec{}

// associate connects cell g to r through lis and completes the handshake
// (subscription request and response).
func associate(lis net.Listener, r *ric.RIC, g *core.GNB, cell uint32, t *tracer, stop <-chan struct{}) (*association, error) {
	type accepted struct {
		c   net.Conn
		err error
	}
	acc := make(chan accepted, 1)
	go func() {
		c, err := lis.Accept()
		acc <- accepted{c, err}
	}()
	client, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	a := <-acc
	if a.err != nil {
		client.Close()
		return nil, fmt.Errorf("accept: %w", a.err)
	}
	as := &association{
		ricConn:   newE2Conn(a.c, e2Codec, t, true),
		agentConn: newE2Conn(client, e2Codec, t, false),
		ctl:       newRANControl(g, t),
		served:    make(chan error, 1),
	}
	go func() { as.served <- r.ServeConn(as.ricConn, stop) }()
	as.agent, err = ric.NewAgent(as.agentConn, as.ctl, ric.AgentConfig{Cell: cell})
	if err == nil {
		as.agentDone, err = as.agent.Start()
	}
	if err != nil {
		as.agentConn.Close()
		<-as.served
		as.ricConn.Close()
		return nil, fmt.Errorf("agent: %w", err)
	}
	return as, nil
}

// closeAll ends every association: stop makes each ServeConn close its
// conn, and closing the agent ends are waited for too.
func closeAll(stopOnce *sync.Once, stop chan struct{}, lis net.Listener, assocs []*association) {
	stopOnce.Do(func() { close(stop) })
	for _, a := range assocs {
		a.agentConn.Close()
		<-a.served
		a.ricConn.Close()
		<-a.agentDone
	}
	lis.Close()
}
