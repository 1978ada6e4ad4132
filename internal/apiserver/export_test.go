package apiserver

// The external tests (package apiserver_test, which may import
// internal/model) build their fixtures with the package's own helpers.
var (
	NewNode      = testNode
	NewReqPod    = reqPod
	NewStormNode = stormNode
	NewStormPod  = stormPod
)
