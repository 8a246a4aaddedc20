// The benchmark is a module of its own, so the root module's
// `go build ./...`, `go vet ./...` and `go test ./...` neither build
// nor run it. The module path keeps the `repro/` prefix: that is what
// allows the imports of repro/internal/... .
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
