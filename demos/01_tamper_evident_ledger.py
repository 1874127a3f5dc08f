"""Walk through the ledger: append events, seal under a quorum, catch tampering.

Every state transition in the simulator lands in this hash-chained log.
Three sealing authorities sign each block; two of three must agree.
"""

import dataclasses

from govsim.keys import get_scheme
from govsim.ledger import Chain, EventKind, verify_chain

scheme = get_scheme("seeded")
keys = {name: scheme.generate(name.encode()) for name in ("amf", "bafin", "ecb")}

chain = Chain({name: kp.public for name, kp in keys.items()}, capacity=4)
print(f"authorities: {sorted(keys)}  quorum: {chain.quorum} of {len(keys)}")

for n in range(1, 9):
    chain.append(EventKind.HEARTBEAT, {"note": f"activity {n}"}, actor="demo", epoch=1)
print(f"appended 8 events; pending spans blocks with capacity {chain.capacity}")

blocks = chain.seal_all({name: kp.private for name, kp in keys.items()})
print(f"sealed {len(blocks)} blocks; head hash {chain.head_hash.hex()[:16]}…")

result = verify_chain(chain.blocks, chain.authorities, chain.quorum)
print(f"verification of the honest chain: ok={result.ok}")

# Now flip a single payload byte deep inside block 2 and re-verify.
target = chain.blocks[1]
event = target.events[0]
tampered_event = dataclasses.replace(
    event, payload=event.payload[:-2] + bytes([event.payload[-2] ^ 0x01]) + event.payload[-1:]
)
tampered = list(chain.blocks)
tampered[1] = dataclasses.replace(target, events=(tampered_event,) + target.events[1:])

result = verify_chain(tampered, chain.authorities, chain.quorum)
print(f"after flipping one byte in block 2: ok={result.ok}, "
      f"failure at height {result.failed_height} ({result.reason})")

assert not result.ok and result.failed_height == 2
print("single-byte tampering is detected at the exact height.")
