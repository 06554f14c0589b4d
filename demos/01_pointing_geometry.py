"""Where must the beam point?

Computes the pointing Euler angles from UAV latitude/longitude to a
geostationary satellite, then the gimbal angles that realize them for a
few vehicle attitudes.  The reference location is Xi'an (34.27 N,
108.95 E) looking at a satellite parked at 105.5 E.
"""

import math

from beamtrack.frames import Attitude, c_n_b
from beamtrack.mechanical import GeoConfig, pointing_euler, stabilization_command

D2R = math.pi / 180.0

geo = GeoConfig()
euler = pointing_euler(geo)
print("Pointing solution relative to north-east-down:")
print(f"  heading      {euler.heading / D2R:9.4f} deg (180 + {euler.heading / D2R - 180:.4f})")
print(f"  elevation    {euler.elevation / D2R:9.4f} deg")
print(f"  polarization {euler.polarization / D2R:9.4f} deg")
print()

print("Gimbal commands that keep the beam on target as the vehicle moves:")
print(f"  {'attitude (yaw, pitch, roll)':34s} {'azimuth':>9} {'elevation':>10} {'polar.':>8}")
for att_deg in [(0, 0, 0), (20, 0, 0), (0, 8, 0), (0, 0, -10), (15, 5, -8)]:
    att = Attitude(*(a * D2R for a in att_deg))
    cmd = stabilization_command(c_n_b(att), euler)
    print(
        f"  {str(att_deg):34s} {cmd.azimuth / D2R:9.3f} {cmd.elevation / D2R:10.3f} "
        f"{cmd.polarization / D2R:8.3f}"
    )
print()
print("A pure yaw shifts the azimuth command by the opposite amount while")
print("elevation and polarization stay put; pitch and roll mix all three.")
