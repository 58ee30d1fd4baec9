package logdata

// SystemSpec describes one synthetic software system: how large its corpus
// is (Table III), how often anomalies occur, which semantic concepts it can
// emit, and — crucially — its surface dialect: the templates that render
// each concept in this system's own vocabulary and formatting.
type SystemSpec struct {
	// Name is the dataset name used throughout the paper (e.g. "BGL").
	Name string
	// Lines is the corpus size at paper scale (scale=1.0).
	Lines int
	// BurstRate is the per-line probability that an anomaly burst begins.
	BurstRate float64
	// BurstLenMin and BurstLenMax bound the length of an anomaly burst.
	BurstLenMin, BurstLenMax int
	// Anomalies lists the anomalous concept keys this system can emit.
	Anomalies []string
	// Workflows are multi-line normal operation sequences (e.g. a job
	// lifecycle); they give sequence models temporal structure to learn.
	Workflows [][]string
	// Background lists normal concepts emitted as isolated lines.
	Background []string
	// Rare lists long-tail normal concepts (maintenance, rotations, …)
	// emitted at RareRate per line, uniformly across the list. They are
	// the main source of false positives for methods that only learn the
	// target's head behaviour from a small training slice.
	Rare []string
	// RareRate is the per-line probability of emitting a rare concept.
	RareRate float64
	// Renderings maps concept key to this system's surface templates.
	// Placeholders: {ip} {port} {n} {big} {hex} {path} {user} {node} {ms}.
	Renderings map[string][]string
}

// Coverage reports how many of other's anomaly concepts this system can
// also emit, as a fraction of other's anomaly set. It quantifies the
// paper's §V observation that transfer works when the source covers the
// target's anomalies.
func (s *SystemSpec) Coverage(other *SystemSpec) float64 {
	if len(other.Anomalies) == 0 {
		return 0
	}
	mine := make(map[string]bool, len(s.Anomalies))
	for _, a := range s.Anomalies {
		mine[a] = true
	}
	covered := 0
	for _, a := range other.Anomalies {
		if mine[a] {
			covered++
		}
	}
	return float64(covered) / float64(len(other.Anomalies))
}

// Systems returns the six paper datasets keyed by name.
func Systems() map[string]*SystemSpec {
	all := []*SystemSpec{BGL(), Spirit(), Thunderbird(), SystemA(), SystemB(), SystemC()}
	m := make(map[string]*SystemSpec, len(all))
	for _, s := range all {
		m[s.Name] = s
	}
	return m
}

// BGL models the Blue Gene/L supercomputer RAS log: terse kernel-style
// messages, rich anomaly coverage (it is a "mature" source in the paper).
func BGL() *SystemSpec {
	return &SystemSpec{
		Name:        "BGL",
		Lines:       1356817,
		BurstRate:   0.0105,
		BurstLenMin: 1,
		BurstLenMax: 4,
		Anomalies: []string{
			"anom.net.interrupt", "anom.parity", "anom.disk.fail", "anom.oom",
			"anom.timeout", "anom.auth.fail", "anom.service.crash", "anom.corrupt",
			"anom.overload", "anom.replica.lost", "anom.fs.readonly", "anom.hw.temp",
			"anom.bgl.kernel", "anom.bgl.torus",
		},
		Workflows: [][]string{
			{"op.job.submit", "op.job.start", "op.disk.read", "op.disk.write", "op.job.finish"},
			{"op.net.connect", "op.replica.sync", "op.net.close"},
			{"op.bgl.ciod", "op.heartbeat", "op.bgl.ras"},
		},
		Background: []string{"op.heartbeat", "op.monitor", "op.gc", "op.bgl.ciod", "op.bgl.ras", "op.cache.hit"},
		Rare: []string{
			"op.maint", "op.cert", "op.upgrade", "op.audit", "op.clock",
			"op.debugdump", "op.quota", "op.retrywarn", "op.drill", "op.reindex", "op.bgl.reseat",
		},
		RareRate: 0.03,
		Renderings: map[string][]string{
			"op.maint": {
				"MMCS: service action {n} performed on {node} by admin",
				"MMCS: maintenance window opened for midplane {node} duration {n} min",
			},
			"op.cert":      {"ciod: service node credential rotated serial {hex}"},
			"op.upgrade":   {"mmcs: microloader image updated to build {big} on {node}"},
			"op.audit":     {"RAS: configuration audit dump written entries {list}"},
			"op.clock":     {"MMCS: time base registers resynced skew {ms} us"},
			"op.debugdump": {"ciod: trace buffer dumped {big} records to {path}"},
			"op.quota":     {"ciod: scratch usage report {big} of {big} blocks"},
			"op.retrywarn": {"ciod: transient send retried ok attempt {n} recovered"},
			"op.drill":     {"MMCS: failover exercise completed control moved and back"},
			"op.reindex":   {"ido: node map index rebuilt entries {big}"},
			"op.bgl.reseat": {
				"MMCS: service card {node} reseated link retrained",
				"MMCS: operator reseated node card {node} lamp test ok",
			},
			"anom.net.interrupt": {
				"ciod: Error reading message prefix on CioStream socket to {ip}: Link has been severed",
				"ciod: failed socket syscall on control stream CioStream to {ip} connection lost",
			},
			"anom.parity": {
				"machine check interrupt (bit={hex}): L2 dcache unit read return parity error",
				"instruction cache parity error corrected on node {node}",
			},
			"anom.disk.fail":     {"ciod: LOGIN chdir {path} failed: input/output error on ide device {n}"},
			"anom.oom":           {"kernel: ALERT rts panic - out of memory killing tree under {hex}"},
			"anom.timeout":       {"ciod: timeout sending RAS packet to service node after {n} attempts"},
			"anom.auth.fail":     {"NIDMAP: invalid credential presented by rank {n} uid {n} rejected"},
			"anom.service.crash": {"rts: kernel terminated for reason {hex} application killed by signal {n}"},
			"anom.corrupt":       {"ddr: excessive soft failures, consider replacing the ddr chip kill corrupt data at {hex}"},
			"anom.overload":      {"ciod: pollControlDescriptors backlog {big} exceeds limit dropping control packets"},
			"anom.replica.lost":  {"ido: node card VPD mismatch replica {n} evicted from midplane group"},
			"anom.fs.readonly":   {"ciod: filesystem {path} forced read-only after journal abort code {n}"},
			"anom.hw.temp":       {"MMCS: node card temperature {n}C over threshold shutting down ASIC clock"},
			"anom.bgl.kernel":    {"KERNEL FATAL kernel panic in interrupt vector {hex} rip {hex} halting core {n}"},
			"anom.bgl.torus":     {"KERNEL INFO torus receiver {node} input pipe error: bad packet CRC retry {n} exhausted"},

			"op.job.submit":   {"mmcs: job {big} queued on partition R{n}-M{n}"},
			"op.job.start":    {"ciod: Loading {path} into {n} compute nodes for job {big}"},
			"op.job.finish":   {"ciod: Job {big} terminated normally exit status 0"},
			"op.net.connect":  {"ciod: generated CioStream connection to {ip} port {port}"},
			"op.net.close":    {"ciod: closed CioStream socket to {ip} rc 0"},
			"op.disk.read":    {"ciod: read {big} bytes from {path} in {ms} ms"},
			"op.disk.write":   {"ciod: flushed {big} bytes to {path} sync ok"},
			"op.heartbeat":    {"MMCS: midplane {node} heartbeat ok lag {ms} ms"},
			"op.replica.sync": {"ido: mirrored state to midplane replica {n} seq {big}"},
			"op.gc":           {"rts: compacted kernel heap freed {big} bytes"},
			"op.monitor":      {"MMCS: environment monitor sample ok fan {n} rpm temp {n}C"},
			"op.cache.hit":    {"ciod: control cache hit for node map {hex}"},
			"op.bgl.ciod":     {"ciod: processed control message type {n} from service node"},
			"op.bgl.ras":      {"RAS: event code {hex} severity INFO logged for {node}"},
		},
	}
}

// Spirit models the Spirit (ICC2) Linux cluster syslog: classic unix
// daemon messages, rich anomaly coverage, the largest corpus.
func Spirit() *SystemSpec {
	return &SystemSpec{
		Name:        "Spirit",
		Lines:       4783733,
		BurstRate:   0.00088,
		BurstLenMin: 1,
		BurstLenMax: 3,
		Anomalies: []string{
			"anom.net.interrupt", "anom.parity", "anom.disk.fail", "anom.oom",
			"anom.timeout", "anom.auth.fail", "anom.service.crash", "anom.corrupt",
			"anom.overload", "anom.replica.lost", "anom.fs.readonly", "anom.hw.temp",
			"anom.spirit.lustre", "anom.spirit.mpi",
		},
		Workflows: [][]string{
			{"op.job.submit", "op.job.start", "op.query.exec", "op.job.finish"},
			{"op.net.connect", "op.disk.read", "op.disk.write", "op.net.close"},
			{"op.spirit.slurm", "op.spirit.lnet", "op.heartbeat"},
			{"op.auth.ok", "op.query.exec", "op.backup"},
		},
		Background: []string{"op.heartbeat", "op.monitor", "op.auth.ok", "op.spirit.lnet", "op.spirit.slurm", "op.config.reload"},
		Rare: []string{
			"op.maint", "op.cert", "op.upgrade", "op.audit", "op.clock",
			"op.debugdump", "op.quota", "op.retrywarn", "op.drill", "op.reindex", "op.spirit.purge",
		},
		RareRate: 0.03,
		Renderings: map[string][]string{
			"op.maint": {
				"crond[{n}]: maintenance window task {path} ran ok",
				"logrotate: maintenance rotation of {path} complete",
			},
			"op.cert":      {"sshd[{n}]: host key regenerated fingerprint {hex}"},
			"op.upgrade":   {"rpm: package kernel-smp-{n}.{n} installed cleanly"},
			"op.audit":     {"auditd[{n}]: config snapshot saved nodes {list}"},
			"op.clock":     {"ntpd[{n}]: clock step {n} ms to stratum {n} source {ip}"},
			"op.debugdump": {"gmond[{n}]: debug dump {big} bytes written {path}"},
			"op.quota":     {"lfs: quota report user {user} {big} kb of {big} kb"},
			"op.retrywarn": {"automount[{n}]: transient lookup retried ok recovered"},
			"op.drill":     {"heartbeat[{n}]: planned takeover exercise done resources returned"},
			"op.reindex":   {"slocate: database rebuilt {big} entries"},
			"op.spirit.purge": {
				"tmpwatch: purge cycle removed stale files {list}",
				"tmpwatch: scratch sweep reclaimed {big} kb under {path}",
			},
			"anom.net.interrupt": {
				"Connection refused ({n}) in open_demux, open_demux: connect {ip}",
				"sshd[{n}]: fatal: Read from socket failed: Connection reset by peer {ip}",
			},
			"anom.parity": {
				"GM: LANAI[{n}]: PANIC: mcp/gm_parity.c:{n}: parityint():firmware",
				"EDAC MC{n}: CE page {hex}, offset {hex}, grain {n}, syndrome {hex}, channel parity fault",
			},
			"anom.disk.fail":     {"kernel: hda: dma_intr: status={hex} { DriveReady SeekComplete Error } sector {big} I/O error"},
			"anom.oom":           {"kernel: Out of Memory: Killed process {n} ({user}) vm {big} kB"},
			"anom.timeout":       {"automount[{n}]: expire_proc: mount point {path} operation timed out after {n}s"},
			"anom.auth.fail":     {"sshd[{n}]: Failed password for {user} from {ip} port {port} ssh2 attempt {n}"},
			"anom.service.crash": {"gmond[{n}]: segfault at {hex} rip {hex} rsp {hex} error {n} daemon dead"},
			"anom.corrupt":       {"kernel: EXT3-fs error (device hda{n}): ext3_get_inode_loc: bad inode checksum {hex}"},
			"anom.overload":      {"sendmail[{n}]: rejecting connections on daemon MTA: load average: {n} queue saturated"},
			"anom.replica.lost":  {"heartbeat[{n}]: WARN: node spirit{n}: is dead, removing from replica ring"},
			"anom.fs.readonly":   {"kernel: EXT3-fs (hda{n}): aborting journal, remounting filesystem read-only"},
			"anom.hw.temp":       {"lm_sensors: CPU{n} temperature alarm {n}C exceeds hot limit shutting core"},
			"anom.spirit.lustre": {"LustreError: {n}:{n}:(mds_open.c:{n}:mds_open()) @@@ MDS service unavailable ost {n}"},
			"anom.spirit.mpi":    {"mpirun: MPI_ABORT invoked on rank {n} in communicator MPI_COMM_WORLD collective failed errcode {n}"},

			"op.job.submit":    {"slurmctld[{n}]: sched: job {big} submitted to partition spirit user {user}"},
			"op.job.start":     {"slurmd[{n}]: launching job {big} on spirit{n} cpus {n}"},
			"op.job.finish":    {"slurmctld[{n}]: job {big} completed successfully walltime {ms}"},
			"op.net.connect":   {"xinetd[{n}]: START: shell pid={n} from={ip}"},
			"op.net.close":     {"xinetd[{n}]: EXIT: shell status=0 pid={n} duration={n}(sec)"},
			"op.disk.read":     {"nfs: server spirit-io{n} read {big} bytes {path} rtt {ms} ms"},
			"op.disk.write":    {"nfs: server spirit-io{n} committed {big} bytes {path} stable"},
			"op.auth.ok":       {"sshd[{n}]: Accepted publickey for {user} from {ip} port {port} ssh2"},
			"op.heartbeat":     {"heartbeat[{n}]: info: node spirit{n}: status ping ok"},
			"op.query.exec":    {"ganglia: gmetad poll cluster spirit metrics {n} rows in {ms} ms"},
			"op.backup":        {"amanda: backup of {path} level {n} done {big} kB"},
			"op.config.reload": {"syslogd {n}.{n}.{n}: restart (remote reception)"},
			"op.monitor":       {"crond[{n}]: ({user}) CMD ( {path}/check_health )"},
			"op.spirit.lnet":   {"Lustre: lnet router {node} forwarded {big} bulk bytes qdepth {n}"},
			"op.spirit.slurm":  {"slurmctld[{n}]: partition spirit{n} allocated {n} nodes idle {n}"},
		},
	}
}

// Thunderbird models the Thunderbird supercomputer syslog: admin-flavored
// messages with moderate anomaly coverage.
func Thunderbird() *SystemSpec {
	return &SystemSpec{
		Name:        "Thunderbird",
		Lines:       700005,
		BurstRate:   0.0041,
		BurstLenMin: 1,
		BurstLenMax: 4,
		Anomalies: []string{
			"anom.net.interrupt", "anom.parity", "anom.disk.fail", "anom.oom",
			"anom.timeout", "anom.service.crash", "anom.overload",
			"anom.fs.readonly", "anom.hw.temp", "anom.tb.sched",
		},
		Workflows: [][]string{
			{"op.job.submit", "op.job.start", "op.disk.write", "op.job.finish"},
			{"op.net.connect", "op.query.exec", "op.net.close"},
			{"op.tb.ib", "op.heartbeat", "op.tb.nfs"},
		},
		Background: []string{"op.heartbeat", "op.monitor", "op.tb.ib", "op.tb.nfs", "op.gc", "op.scale.up"},
		Rare: []string{
			"op.maint", "op.cert", "op.upgrade", "op.audit", "op.clock",
			"op.debugdump", "op.quota", "op.retrywarn", "op.drill", "op.reindex", "op.tb.fwflash",
		},
		RareRate: 0.03,
		Renderings: map[string][]string{
			"op.maint": {
				"pbs_server: maintenance hold placed and released on tbird{n}",
				"pbs_server: node tbird{n} offlined for planned maintenance then resumed",
			},
			"op.cert":      {"sshd(pam_unix)[{n}]: server certificate renewed ok"},
			"op.upgrade":   {"yum: updated firmware-tools-{n}.{n} on tbird{n}"},
			"op.audit":     {"sysstat: audit archive rotated sets {list}"},
			"op.clock":     {"ntpd[{n}]: time reset +{n} s trusted source {ip}"},
			"op.debugdump": {"ib_sm: diagnostic counters dumped to {path} size {big}"},
			"op.quota":     {"quota: report for {user} {big}MB used of {big}MB"},
			"op.retrywarn": {"pbs_mom: transient resend of obit retried ok recovered"},
			"op.drill":     {"heartbeat: planned failover drill tbird-admin{n} passed"},
			"op.reindex":   {"mlocate: index rebuilt {big} paths"},
			"op.tb.fwflash": {
				"ipmi: bmc firmware flashed version {n}.{n} on tbird{n}",
				"ipmi: management controller image staged {big} bytes crc ok",
			},
			// Thunderbird shares failure vocabulary with Spirit/BGL (all
			// three are unix-syslog supercomputers) — this is why raw-
			// embedding transfer baselines do comparatively well with
			// Thunderbird as the target, matching the paper's Table IV.
			"anom.net.interrupt": {"ib_sm: port {n} on tbird-admin{n} link went down: Connection reset by peer carrier lost"},
			"anom.parity":        {"kernel: MCE: CPU {n} bank {n} machine check cache parity error {hex} status uncorrected"},
			"anom.disk.fail":     {"scsi: aacraid: host{n} channel {n} id {n} medium error unrecovered read I/O error sector {big}"},
			"anom.oom":           {"kernel: oom-killer: Out of Memory: Killed process {n} ({user}) gfp_mask={hex} anon-rss {big}kB"},
			"anom.timeout":       {"pbs_mom: sister could not communicate job {big} operation timed out after {n}s node tbird{n}"},
			"anom.service.crash": {"ntpd[{n}]: fatal: process exiting on unexpected signal {n} segfault core dumped at {hex}"},
			"anom.overload":      {"postfix/qmgr[{n}]: warning: queue congestion load average {n} saturated deferring new mail"},
			"anom.fs.readonly":   {"kernel: XFS (dm-{n}): metadata I/O error aborting journal, remounting filesystem read-only {path}"},
			"anom.hw.temp":       {"ipmi: sensor temperature alarm {n}C above upper critical hot limit asserting"},
			"anom.tb.sched":      {"pbs_server: node tbird{n} state changed to down: no contact for {n} polls job {big} orphaned"},

			"op.job.submit":  {"pbs_server: Job {big}.tbird queued user {user} queue batch"},
			"op.job.start":   {"pbs_mom: Job {big}.tbird started on tbird{n} session {n}"},
			"op.job.finish":  {"pbs_mom: Job {big}.tbird exited status 0 resources cput={ms}"},
			"op.net.connect": {"sshd(pam_unix)[{n}]: session opened for user {user} by uid={n}"},
			"op.net.close":   {"sshd(pam_unix)[{n}]: session closed for user {user}"},
			"op.disk.write":  {"kernel: XFS (dm-{n}): wrote {big} blocks journal clean"},
			"op.query.exec":  {"nagios: SERVICE CHECK host tbird{n} load OK time {ms} ms"},
			"op.heartbeat":   {"heartbeat: tbird-admin{n} alive idle {n}%"},
			"op.monitor":     {"sysstat: collected {n} counters interval {n}s host tbird{n}"},
			"op.gc":          {"java[{n}]: GC pause {ms} ms heap {big}K -> {big}K"},
			"op.scale.up":    {"pbs_server: enabled {n} additional nodes in reservation {hex}"},
			"op.tb.ib":       {"ib_sm: sweep complete {n} ports active {n} links {ms} ms"},
			"op.tb.nfs":      {"nfs: mount tbird-nfs{n}:{path} refreshed attrcache {n} entries"},
		},
	}
}

// SystemA models an ISP customer-facing billing/API service (CDMS): modern
// key=value microservice logs, very low anomaly rate, few anomaly kinds.
func SystemA() *SystemSpec {
	return &SystemSpec{
		Name:        "SystemA",
		Lines:       2166422,
		BurstRate:   0.00019,
		BurstLenMin: 1,
		BurstLenMax: 3,
		Anomalies: []string{
			"anom.net.interrupt", "anom.timeout", "anom.auth.fail",
			"anom.overload", "anom.service.crash", "anom.sysa.billing",
		},
		Workflows: [][]string{
			{"op.sysa.api", "op.auth.ok", "op.query.exec", "op.sysa.invoice"},
			{"op.net.connect", "op.cache.hit", "op.query.exec", "op.net.close"},
			{"op.backup", "op.replica.sync", "op.monitor"},
		},
		Background: []string{"op.heartbeat", "op.cache.hit", "op.cache.expire", "op.sysa.api", "op.gc", "op.config.reload", "op.scale.up"},
		Rare: []string{
			"op.maint", "op.cert", "op.upgrade", "op.audit", "op.clock",
			"op.debugdump", "op.quota", "op.retrywarn", "op.drill", "op.reindex", "op.sysa.taxsync",
		},
		RareRate: 0.03,
		Renderings: map[string][]string{
			"op.maint": {
				"level=info svc=ops msg=\"maintenance job done\" task={path} dur={ms}ms",
				"level=info svc=ops msg=\"maintenance window closed\" changes={n}",
			},
			"op.cert":      {"level=info svc=tls msg=\"cert rotated\" serial={hex} notafter={n}d"},
			"op.upgrade":   {"level=info svc=deploy msg=\"rollout complete\" version={n}.{n}.{n} pods={n}"},
			"op.audit":     {"level=info svc=audit msg=\"config snapshot\" keys={list}"},
			"op.clock":     {"level=debug svc=ntp msg=\"clock synced\" skew={ms}ms"},
			"op.debugdump": {"level=debug svc=support msg=\"pprof captured\" size={big}B dest={path}"},
			"op.quota":     {"level=info svc=storage msg=\"quota report\" used={big}MB limit={big}MB"},
			"op.retrywarn": {"level=warn svc=gateway msg=\"transient retry ok\" attempt={n} recovered=true"},
			"op.drill":     {"level=info svc=sre msg=\"dr drill passed\" region={n} rto={ms}ms"},
			"op.reindex":   {"level=info svc=db msg=\"index rebuilt\" table=ledger rows={big}"},
			"op.sysa.taxsync": {
				"level=info svc=billing msg=\"tax table synced\" rows={n} feed=gov",
				"level=info svc=billing msg=\"rate schedule refreshed\" regions={list}",
			},
			// The ISP systems share a moderate amount of cloud-service
			// failure vocabulary with each other (but not with the HPC
			// group), giving pooled-supervision baselines partial recall
			// within Table V's group, as in the paper.
			"anom.net.interrupt": {"level=error svc=gateway msg=\"upstream peer unreachable conn dropped\" peer={ip} reason=signal_lost retry={n}"},
			"anom.timeout":       {"level=error svc=billing msg=\"rpc deadline exceeded timeout\" method=Charge dur={ms}ms budget={ms}ms"},
			"anom.auth.fail":     {"level=warn svc=auth msg=\"login denied bad credentials\" user={user} ip={ip} consecutive_failures={n}"},
			"anom.overload":      {"level=error svc=gateway msg=\"queue saturated shedding load\" depth={big} p99={ms}ms"},
			"anom.service.crash": {"level=fatal svc=worker msg=\"panic: runtime error\" goroutine={n} addr={hex} restarting"},
			"anom.sysa.billing":  {"level=error svc=recon msg=\"ledger mismatch\" expected={big} actual={big} account={hex}"},

			"op.sysa.api":      {"level=info svc=gateway msg=\"request routed\" route={path} status=200 dur={ms}ms"},
			"op.sysa.invoice":  {"level=info svc=billing msg=\"statement generated\" account={hex} amount={n}.{n} items={n}"},
			"op.auth.ok":       {"level=info svc=auth msg=\"token issued\" user={user} ttl={n}s"},
			"op.query.exec":    {"level=info svc=db msg=\"query ok\" table=invoices rows={n} dur={ms}ms"},
			"op.net.connect":   {"level=info svc=gateway msg=\"conn accepted\" peer={ip}:{port} tls=true"},
			"op.net.close":     {"level=info svc=gateway msg=\"conn closed\" peer={ip}:{port} bytes={big}"},
			"op.cache.hit":     {"level=debug svc=cache msg=\"hit\" key={hex} age={n}s"},
			"op.cache.expire":  {"level=debug svc=cache msg=\"expired\" key={hex} refreshed=true"},
			"op.replica.sync":  {"level=info svc=db msg=\"replica caught up\" lag={ms}ms lsn={big}"},
			"op.backup":        {"level=info svc=db msg=\"snapshot complete\" size={big}MB dest={path}"},
			"op.heartbeat":     {"level=debug svc=health msg=\"ok\" checks={n} dur={ms}ms"},
			"op.monitor":       {"level=info svc=metrics msg=\"scrape ok\" series={big} dur={ms}ms"},
			"op.gc":            {"level=debug svc=runtime msg=\"gc cycle\" freed={big}KB pause={ms}ms"},
			"op.config.reload": {"level=info svc=config msg=\"reloaded\" version={n} keys={n}"},
			"op.scale.up":      {"level=info svc=autoscaler msg=\"scaled out\" replicas={n} cpu={n}%"},
		},
	}
}

// SystemB models an ISP distributed cache tier: bracketed structured logs,
// the lowest anomaly rate of all six datasets.
func SystemB() *SystemSpec {
	return &SystemSpec{
		Name:        "SystemB",
		Lines:       877444,
		BurstRate:   0.00016,
		BurstLenMin: 1,
		BurstLenMax: 3,
		Anomalies: []string{
			"anom.net.interrupt", "anom.oom", "anom.timeout",
			"anom.replica.lost", "anom.overload", "anom.sysb.cache",
		},
		Workflows: [][]string{
			{"op.net.connect", "op.cache.hit", "op.cache.expire", "op.net.close"},
			{"op.sysb.shard", "op.replica.sync", "op.heartbeat"},
			{"op.sysb.ttl", "op.gc", "op.monitor"},
		},
		Background: []string{"op.cache.hit", "op.heartbeat", "op.sysb.ttl", "op.sysb.shard", "op.monitor", "op.scale.up"},
		Rare: []string{
			"op.maint", "op.cert", "op.upgrade", "op.audit", "op.clock",
			"op.debugdump", "op.quota", "op.retrywarn", "op.drill", "op.reindex", "op.sysb.warmup",
		},
		RareRate: 0.03,
		Renderings: map[string][]string{
			"op.maint": {
				"[INF] admin: maintenance script {path} finished rc 0",
				"[INF] admin: planned maintenance applied {n} config changes",
			},
			"op.cert":      {"[INF] tls: cluster cert reloaded serial {hex}"},
			"op.upgrade":   {"[INF] admin: engine binary upgraded to {n}.{n}.{n} rolling"},
			"op.audit":     {"[INF] admin: config dump saved sections {list}"},
			"op.clock":     {"[DBG] time: drift corrected {ms}ms via ntp"},
			"op.debugdump": {"[DBG] debug: latency histogram dumped {big} buckets {path}"},
			"op.quota":     {"[INF] mem: usage report {big}MB of {big}MB budget"},
			"op.retrywarn": {"[WRN] repl: transient partial resync retried ok recovered"},
			"op.drill":     {"[INF] cluster: planned failover drill shard {n} ok"},
			"op.reindex":   {"[INF] engine: keyspace index rebuilt {big} slots"},
			"op.sysb.warmup": {
				"[INF] admin: warmup snapshot exported {big} keys to {path}",
				"[INF] admin: warmup preload shards {list} done",
			},
			"anom.net.interrupt": {"[ERR] cluster-bus: peer {ip}:{port} unreachable marking FAIL epoch {big} signal lost"},
			"anom.oom":           {"[ERR] engine: allocation of {big} bytes failed maxmemory reached evicting impossible OOM"},
			"anom.timeout":       {"[ERR] repl: MASTER timeout no PING reply for {n}s breaking link"},
			"anom.replica.lost":  {"[WRN] cluster: quorum lost for shard {n} replica {hex} demoted removed from ring"},
			"anom.overload":      {"[ERR] engine: command backlog {big} saturated exceeds watermark clients throttled p99 {ms}ms"},
			"anom.sysb.cache":    {"[ERR] evict: storm detected {big} keys evicted in {n}s hit-rate collapsed to {n}%"},

			"op.net.connect":  {"[INF] listener: accepted client {ip}:{port} fd {n}"},
			"op.net.close":    {"[INF] listener: client {ip}:{port} closed cleanly bytes {big}"},
			"op.cache.hit":    {"[DBG] engine: GET {hex} hit ttl {n}s size {n}B"},
			"op.cache.expire": {"[DBG] engine: key {hex} expired lazily reclaimed {n}B"},
			"op.replica.sync": {"[INF] repl: partial resync with master offset {big} ok"},
			"op.heartbeat":    {"[DBG] cluster-bus: gossip round ok peers {n} lag {ms}ms"},
			"op.gc":           {"[DBG] engine: defrag pass freed {big}KB frag {n}%"},
			"op.monitor":      {"[INF] stats: ops {big}/s mem {big}MB hit {n}%"},
			"op.scale.up":     {"[INF] cluster: shard {n} split migrating {big} slots"},
			"op.sysb.shard":   {"[INF] cluster: rebalance moved slot {n} to node {hex}"},
			"op.sysb.ttl":     {"[DBG] sweeper: cycle {n} scanned {big} keys expired {n}"},
		},
	}
}

// SystemC models an ISP customer session/portal service: Java-app style
// logs, moderate anomaly rate.
func SystemC() *SystemSpec {
	return &SystemSpec{
		Name:        "SystemC",
		Lines:       691433,
		BurstRate:   0.0036,
		BurstLenMin: 1,
		BurstLenMax: 4,
		Anomalies: []string{
			"anom.net.interrupt", "anom.auth.fail", "anom.timeout",
			"anom.service.crash", "anom.corrupt", "anom.replica.lost",
			"anom.sysc.session",
		},
		Workflows: [][]string{
			{"op.sysc.login", "op.query.exec", "op.sysc.cdn", "op.net.close"},
			{"op.net.connect", "op.auth.ok", "op.query.exec"},
			{"op.replica.sync", "op.backup", "op.monitor"},
		},
		Background: []string{"op.heartbeat", "op.sysc.cdn", "op.sysc.login", "op.gc", "op.cache.hit", "op.config.reload"},
		Rare: []string{
			"op.maint", "op.cert", "op.upgrade", "op.audit", "op.clock",
			"op.debugdump", "op.quota", "op.retrywarn", "op.drill", "op.reindex", "op.sysc.abtest",
		},
		RareRate: 0.03,
		Renderings: map[string][]string{
			"op.maint": {
				"INFO [ops-{n}] Maintenance - task {path} completed in {ms}ms",
				"INFO [ops-{n}] Maintenance - window closed after {n} changes",
			},
			"op.cert":      {"INFO [tls-{n}] KeyManager - certificate rotated serial {hex}"},
			"op.upgrade":   {"INFO [deploy-{n}] Rollout - version {n}.{n}.{n} active on {n} nodes"},
			"op.audit":     {"INFO [audit-{n}] ConfigAudit - snapshot stored sections {list}"},
			"op.clock":     {"DEBUG [time-{n}] NtpClient - offset corrected {ms}ms"},
			"op.debugdump": {"DEBUG [support-{n}] Dumper - thread dump {big}B written {path}"},
			"op.quota":     {"INFO [storage-{n}] QuotaReporter - used {big}MB of {big}MB"},
			"op.retrywarn": {"WARN [client-{n}] RetryPolicy - transient call retried ok recovered"},
			"op.drill":     {"INFO [sre-{n}] DrDrill - zone evacuation drill passed rto {ms}ms"},
			"op.reindex":   {"INFO [store-{n}] Indexer - secondary index rebuilt {big} rows"},
			"op.sysc.abtest": {
				"INFO [exp-{n}] Assigner - experiment table refreshed {n} buckets",
				"INFO [exp-{n}] Assigner - cohort map reloaded segments {list}",
			},
			"anom.net.interrupt": {"ERROR [netty-worker-{n}] ChannelHandler - connection to {ip}:{port} interrupted: peer unreachable signal lost"},
			"anom.auth.fail":     {"WARN [auth-{n}] LoginService - login denied {n} consecutive bad credentials for principal {user} src {ip}"},
			"anom.timeout":       {"ERROR [hystrix-{n}] CommandExecutor - fallback: downstream deadline exceeded latency {ms}ms timeout {ms}ms"},
			"anom.service.crash": {"FATAL [main] Bootstrap - uncaught exception java.lang.NullPointerException at {hex}; jvm exiting code {n}"},
			"anom.corrupt":       {"ERROR [store-{n}] PageFile - checksum mismatch page {big} expected {hex} got {hex} marking corrupt"},
			"anom.replica.lost":  {"ERROR [raft-{n}] Quorum - leader lease lost term {big} stepping down replica removed"},
			"anom.sysc.session":  {"ERROR [session-{n}] Replicator - failed to replicate session {hex} to zone-{n}: broken pipe"},

			"op.sysc.login":    {"INFO [session-{n}] PortalGateway - session {hex} established for subscriber {user} via portal"},
			"op.sysc.cdn":      {"INFO [edge-{n}] CdnClient - object {path} refreshed at edge ttl {n}s"},
			"op.auth.ok":       {"INFO [auth-{n}] LoginService - principal {user} authenticated mfa=true in {ms}ms"},
			"op.query.exec":    {"INFO [jdbc-{n}] QueryRunner - statement ok rows={n} in {ms}ms"},
			"op.net.connect":   {"INFO [netty-worker-{n}] ChannelHandler - channel active {ip}:{port}"},
			"op.net.close":     {"INFO [netty-worker-{n}] ChannelHandler - channel inactive {ip}:{port} wrote {big}B"},
			"op.replica.sync":  {"INFO [raft-{n}] Quorum - follower matched index {big} term {big}"},
			"op.backup":        {"INFO [store-{n}] SnapshotWriter - snapshot {big} persisted to {path}"},
			"op.heartbeat":     {"DEBUG [health-{n}] Probe - liveness ok {ms}ms"},
			"op.monitor":       {"INFO [metrics-{n}] Reporter - flushed {n} gauges {n} counters"},
			"op.gc":            {"INFO [gc] G1 pause young {ms}ms heap {big}M->{big}M"},
			"op.cache.hit":     {"DEBUG [cache-{n}] NearCache - hit key {hex}"},
			"op.config.reload": {"INFO [config-{n}] Watcher - applied {n} changed keys rev {big}"},
		},
	}
}
